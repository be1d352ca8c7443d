(* Fixture: S2 cas-loop-progress. Both planted failure shapes: a retry
   loop whose expected value was read before the loop (can never
   succeed once the word moves), and two result-bearing CASes under one
   label (two linearization points with one name). *)

open Mm_runtime
open Mm_core

(* 1: stale expected — v is read once, outside the retry cycle *)
let bump_stale rt (c : int Rt.atomic) =
  let v = Rt.Atomic.get c in
  let rec go () =
    Rt.label rt Labels.desc_alloc;
    if Rt.Atomic.compare_and_set c v (v + 1) then () else go ()
  in
  go ()

(* 2: second result-bearing CAS in the same labelled window (no read
   in between, so both CASes sit in the one read->label->CAS window) *)
let double_commit rt (c : int Rt.atomic) =
  let a = Rt.Atomic.get c in
  Rt.label rt Labels.desc_alloc;
  let _ = Rt.Atomic.compare_and_set c a 1 in
  if Rt.Atomic.compare_and_set c a 2 then () else ()
