(* The real-runtime hot path (DESIGN.md §20): the malloc/free fast paths
   of "new", "new-cached" and "new-ob" allocate no OCaml heap words, and
   the store's direct region table keeps every bounds, dead-region and
   tolerance rule of the atomic table it shadows. *)

open Mm_runtime
module Cfg = Mm_mem.Alloc_config
module I = Mm_mem.Alloc_intf
module Store = Mm_mem.Store.Make (Real_rt)
module Addr = Mm_mem.Addr
open Util

(* ------------------------------------------------------------------ *)
(* Allocation budget. *)

let live = 1024
let pairs = 100_000

(* Larson-style steady state on one thread: [live] slots of 16-80 byte
   blocks (five size classes), each step frees a random slot and
   mallocs a fresh block into it. The loop itself allocates nothing —
   an inline LCG picks slots and sizes — so the minor-heap growth over
   the measured window is the allocator's alone. *)
let words_per_op name =
  let inst = instance name Rt.real in
  let seed = ref 12345 in
  let rand bound =
    seed := ((!seed * 1103515245) + 12345) land 0x3FFF_FFFF;
    (!seed lsr 8) mod bound
  in
  let size () = 16 * (1 + rand 5) in
  let slots = Array.init live (fun _ -> I.instance_malloc inst (size ())) in
  let run n =
    for _ = 1 to n do
      let s = rand live in
      I.instance_free inst slots.(s);
      slots.(s) <- I.instance_malloc inst (size ())
    done
  in
  run pairs;
  let w0 = Gc.minor_words () in
  run pairs;
  let words = Gc.minor_words () -. w0 in
  Array.iter (I.instance_free inst) slots;
  I.instance_check inst;
  words /. float_of_int (2 * pairs)

let budget = 1.0

let check_budget what w =
  if w > budget then
    Alcotest.failf "%s: %.2f minor words per op, budget %.1f" what w budget

let allocation_budget name () = check_budget name (words_per_op name)

(* The larson loop above lives on cache hits. The two loops below reach
   the block cache's batched paths instead: every 16th miss refills and
   every 16th overflow or remote free flushes. *)
let burst = 4096
let warm_rounds = 5
let rounds = 20

(* Threadtest-shaped: malloc [burst] 8-byte blocks, then free them in
   allocation order — refills on the way up, overflow flushes on the
   way down, and superblocks made and emptied every round. *)
let batch_churn () =
  let inst = instance "new-cached" Rt.real in
  let blocks = Array.make burst 0 in
  let round () =
    for i = 0 to burst - 1 do
      blocks.(i) <- I.instance_malloc inst 8
    done;
    for i = 0 to burst - 1 do
      I.instance_free inst blocks.(i)
    done
  in
  for _ = 1 to warm_rounds do
    round ()
  done;
  let w0 = Gc.minor_words () in
  for _ = 1 to rounds do
    round ()
  done;
  let words = Gc.minor_words () -. w0 in
  I.instance_check inst;
  check_budget "new-cached threadtest loop"
    (words /. float_of_int (2 * burst * rounds))

(* Remote frees: one spawned domain (thread 1, heap 1) mallocs a burst,
   the main domain (thread 0, heap 0) frees it, so every free goes
   through the remote buffer and its batched flush. The two take turns
   through [phase]; each counts its own domain's minor words over the
   measured rounds. *)
let remote_flush () =
  let inst = instance ~cfg:(Cfg.make ~nheaps:2 ()) "new-cached" Rt.real in
  let blocks = Array.make burst 0 in
  let phase = Atomic.make 0 in
  let await p =
    while Atomic.get phase <> p do
      Domain.cpu_relax ()
    done
  in
  let total = warm_rounds + rounds in
  let producer =
    Domain.spawn (fun () ->
        Domain.DLS.set Rt_base.dls_self 1;
        let w0 = ref 0.0 in
        for r = 0 to total - 1 do
          await (2 * r);
          if r = warm_rounds then w0 := Gc.minor_words ();
          for i = 0 to burst - 1 do
            blocks.(i) <- I.instance_malloc inst 8
          done;
          Atomic.set phase ((2 * r) + 1)
        done;
        Gc.minor_words () -. !w0)
  in
  let w0 = ref 0.0 in
  for r = 0 to total - 1 do
    await ((2 * r) + 1);
    if r = warm_rounds then w0 := Gc.minor_words ();
    for i = 0 to burst - 1 do
      I.instance_free inst blocks.(i)
    done;
    Atomic.set phase ((2 * r) + 2)
  done;
  let words = Gc.minor_words () -. !w0 +. Domain.join producer in
  I.instance_check inst;
  check_budget "new-cached remote-free loop"
    (words /. float_of_int (2 * burst * rounds))

(* ------------------------------------------------------------------ *)
(* The store's real word path. *)

let sbsize = 16 * 1024

(* Hyperblock slices share one backing buffer at bases > 0: every word
   of a slice is reachable, and nothing spills into a neighbour. *)
let hyperblock_slice () =
  let st = Store.create () ~capacity:256 ~sbsize ~hyperblocks:true () in
  let a = Store.alloc_superblock st in
  let b = Store.alloc_superblock st in
  Alcotest.(check bool)
    "distinct regions" true
    (Addr.region a <> Addr.region b);
  List.iter
    (fun off ->
      Store.write_word st (a + off) (off + 1);
      Store.write_word st (b + off) (-(off + 1)))
    [ 0; 8; 4096; sbsize - 8 ];
  List.iter
    (fun off ->
      Alcotest.(check int)
        "slice a word" (off + 1)
        (Store.read_word st (a + off));
      Alcotest.(check int) "slice b word" (-(off + 1))
        (Store.read_word st (b + off)))
    [ 0; 8; 4096; sbsize - 8 ];
  Alcotest.(check int) "untouched word is zero" 0 (Store.read_word st (a + 16))

let span_region () =
  let st = Store.create () ~capacity:256 ~sbsize () in
  let pages = 4 in
  let sp = Store.alloc_span st ~pages in
  let len = pages * Store.page in
  Alcotest.(check int) "span length" len (Store.region_len st sp);
  List.iter
    (fun off -> Store.write_word st (sp + off) (off * 3))
    [ 0; Store.page; len - 8 ];
  List.iter
    (fun off ->
      Alcotest.(check int)
        "span word" (off * 3)
        (Store.read_word st (sp + off)))
    [ 0; Store.page; len - 8 ]

(* A freed large region is dead: reads give 0 and writes are dropped,
   also once its id has been recycled for a fresh mapping. *)
let dead_after_free_large () =
  let st = Store.create () ~capacity:256 ~sbsize () in
  let big = Store.alloc_large st ~len:100 in
  Store.write_word st (big + 8) 42;
  Store.free_large st big;
  Alcotest.(check int) "dead read" 0 (Store.read_word st (big + 8));
  Store.write_word st (big + 8) 7;
  Alcotest.(check int) "dead write dropped" 0 (Store.read_word st (big + 8));
  Alcotest.(check int) "region gone" 0 (Store.region_len st big);
  let again = Store.alloc_large st ~len:100 in
  Alcotest.(check int) "id recycled" (Addr.region big) (Addr.region again);
  Alcotest.(check int)
    "fresh mapping is clean" 0
    (Store.read_word st (again + 8))

(* An offset past the region's end stays tolerant on the real runtime
   (the simulator raises, see the store suite): reads give 0 and writes
   are dropped — even where the backing buffer continues into the next
   hyperblock slice. A hyperblock's slices take consecutive region ids
   in buffer order, so [a]'s physical neighbour is region [a + 1]. *)
let past_region_end () =
  let st = Store.create () ~capacity:256 ~sbsize ~hyperblocks:true () in
  let a = Store.alloc_superblock st in
  let next = Addr.make ~region:(Addr.region a + 1) ~offset:0 in
  Alcotest.(check int) "neighbour is a live slice" sbsize
    (Store.region_len st next);
  Store.write_word st next 11;
  List.iter
    (fun off ->
      Alcotest.(check int) "OOB read" 0 (Store.read_word st (a + off));
      Store.write_word st (a + off) 99)
    [ sbsize; sbsize - 4; sbsize + 8; Addr.max_offset - 7 ];
  Alcotest.(check int) "neighbour slice intact" 11 (Store.read_word st next);
  Alcotest.(check int) "null address reads 0" 0 (Store.read_word st Addr.null);
  Alcotest.(check int) "id past the table reads 0" 0
    (Store.read_word st (Addr.make ~region:Addr.max_region ~offset:0))

let cases =
  List.map
    (fun name ->
      case (Printf.sprintf "%s allocates <= 1 word per op" name)
        (allocation_budget name))
    [ "new"; "new-cached"; "new-ob" ]
  @ [
      case "real store: hyperblock slice at base > 0" hyperblock_slice;
      case "real store: span region" span_region;
      case "real store: dead after free_large" dead_after_free_large;
      case "real store: past the region end is tolerant" past_region_end;
      case "new-cached threadtest loop allocates <= 1 word per op" batch_churn;
      case "new-cached remote frees allocate <= 1 word per op" remote_flush;
    ]
