(* Fixture: S4 label-dominance, the read->CAS window. The label must
   run after the shared-word read and before the CAS on every path, or
   the schedule explorer cannot interpose in the window. Five planted
   shapes: the label armed before the read, no label at all, a helping
   CAS (ignore (CAS ...)) with the label before the read, a label on
   one branch only, and the label before a read whose window a helper's
   CAS closes. The clean twins label after the read. *)

open Mm_runtime
open Mm_core

(* 1: label before the read *)
let bump_early rt (c : int Rt.atomic) =
  Rt.label rt Labels.desc_alloc;
  let v = Rt.Atomic.get c in
  if Rt.Atomic.compare_and_set c v (v + 1) then () else ()

(* 2: unlabelled straight-line CAS *)
let bump_bare (c : int Rt.atomic) =
  let v = Rt.Atomic.get c in
  if Rt.Atomic.compare_and_set c v (v + 1) then () else ()

(* 3: helping CAS, label before the read *)
let help_early rt (c : int Rt.atomic) =
  Rt.label rt Labels.desc_alloc;
  let v = Rt.Atomic.get c in
  ignore (Rt.Atomic.compare_and_set c v (v + 1))

(* 4: the label runs on one branch only *)
let bump_one_arm rt (c : int Rt.atomic) hot =
  let v = Rt.Atomic.get c in
  if hot then Rt.label rt Labels.desc_alloc;
  if Rt.Atomic.compare_and_set c v (v + 1) then () else ()

(* 5: the CAS sits in a helper that relies on its caller's label *)
let install (c : int Rt.atomic) v = Rt.Atomic.compare_and_set c v (v + 1)

let bump_via_early rt (c : int Rt.atomic) =
  Rt.label rt Labels.desc_alloc;
  let v = Rt.Atomic.get c in
  ignore (install c v)

(* clean twins *)
let bump rt (c : int Rt.atomic) =
  let v = Rt.Atomic.get c in
  Rt.label rt Labels.desc_alloc;
  if Rt.Atomic.compare_and_set c v (v + 1) then () else ()

let help rt (c : int Rt.atomic) =
  let v = Rt.Atomic.get c in
  Rt.label rt Labels.desc_alloc;
  ignore (Rt.Atomic.compare_and_set c v (v + 1))

let bump_via rt (c : int Rt.atomic) =
  let v = Rt.Atomic.get c in
  Rt.label rt Labels.desc_alloc;
  ignore (install c v)
