(* Fixture: S3 write-before-publish. The block fed to the publishing
   CAS is initialized by plain stores with no Rt.fence in between; the
   fenced twin below it must stay clean. *)

open Mm_runtime
open Mm_core

type blk = { mutable hdr : int; mutable body : int }

(* 1: unfenced initialization published by the CAS *)
let publish_unfenced rt (head : blk option Rt.atomic) (b : blk) =
  b.hdr <- 1;
  b.body <- 2;
  let cur = Rt.Atomic.get head in
  Rt.label rt Labels.desc_alloc;
  if Rt.Atomic.compare_and_set head cur (Some b) then () else ()

(* clean twin: the fence orders the stores before the publish *)
let publish_fenced rt (head : blk option Rt.atomic) (b : blk) =
  b.hdr <- 1;
  b.body <- 2;
  Rt.fence rt;
  let cur = Rt.Atomic.get head in
  Rt.label rt Labels.desc_alloc;
  if Rt.Atomic.compare_and_set head cur (Some b) then () else ()

(* A batch chained through its link words by a loop, its tail linked to
   the observed head, then published by one CAS on a packed word (head
   in the high bits, free count in the low 16): the shape of the batched
   anchor push. [write_word] stands in for Store.write_word. *)
let write_word (mem : int array) addr v = mem.(addr) <- v

(* 2: unfenced chain *)
let chain_unfenced rt (head : int Rt.atomic) mem blocks n =
  let top = Rt.Atomic.get head in
  let rest = ref blocks in
  while !rest != [] do
    match !rest with
    | a :: (next :: _ as tl) ->
        write_word mem a next;
        rest := tl
    | last :: [] ->
        write_word mem last (top lsr 16);
        rest := []
    | [] -> ()
  done;
  Rt.label rt Labels.desc_alloc;
  let desired = (List.hd blocks lsl 16) lor ((top land 0xffff) + n) in
  if Rt.Atomic.compare_and_set head top desired then () else ()

(* clean twin *)
let chain_fenced rt (head : int Rt.atomic) mem blocks n =
  let top = Rt.Atomic.get head in
  let rest = ref blocks in
  while !rest != [] do
    match !rest with
    | a :: (next :: _ as tl) ->
        write_word mem a next;
        rest := tl
    | last :: [] ->
        write_word mem last (top lsr 16);
        rest := []
    | [] -> ()
  done;
  Rt.fence rt;
  Rt.label rt Labels.desc_alloc;
  let desired = (List.hd blocks lsl 16) lor ((top land 0xffff) + n) in
  if Rt.Atomic.compare_and_set head top desired then () else ()
