(* Fixture: S4 label-dominance in the pages section — a buddy-style
   bitmap reservation retried with no label in the loop. *)

open Mm_runtime

let rec reserve rt (word : int Rt.atomic) bits =
  let cur = Rt.Atomic.get word in
  if cur land bits <> 0 then false
  else if Rt.Atomic.compare_and_set word cur (cur lor bits) then true
  else reserve rt word bits

(* the label runs before the read that opens the CAS window *)
let claim_early rt (word : int Rt.atomic) bits =
  Rt.label rt Mm_pages.Pg_labels.buddy_acquire;
  let cur = Rt.Atomic.get word in
  Rt.Atomic.compare_and_set word cur (cur lor bits)

(* clean twin: labelled after the read *)
let claim rt (word : int Rt.atomic) bits =
  let cur = Rt.Atomic.get word in
  Rt.label rt Mm_pages.Pg_labels.buddy_acquire;
  Rt.Atomic.compare_and_set word cur (cur lor bits)
