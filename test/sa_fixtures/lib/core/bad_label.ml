(* Fixture: S4 label-dominance. Four planted shapes: an unlabelled
   CAS retry loop; a call into a parameterized CAS window
   (Tagged_id_stack.pop) from a retry loop with no dominating label and
   no create-time override, with and without an atomic read before the
   call; and an unlabelled install CAS (no read) whose obligation
   escapes to the exported entry point. All planted inside a
   [Make (Rt)] functor body like the real tree (DESIGN.md §18), so the
   parameterized-window demand also proves the interprocedural lookup
   resolves a [Tis = Tagged_id_stack.Make (Rt)] functor-application
   alias. *)

module Make (Rt : Mm_runtime.Runtime_intf.S) = struct
  module Tis = Mm_lockfree.Tagged_id_stack.Make (Rt)

  (* 1: CAS retried with no label re-established in the loop *)
  let rec spin (c : int Rt.atomic) =
    let v = Rt.Atomic.get c in
    if Rt.Atomic.compare_and_set c v (v + 1) then () else spin c

  (* 2: parameterized window called from an unlabelled retry loop *)
  let rec drain (s : Tis.t) =
    match Tis.pop s with Some _ -> drain s | None -> ()

  (* 3: no label anywhere; nothing analyzed calls [once], so the
     obligation reaches the public API *)
  let once rt (c : int Rt.atomic) =
    let v = 0 in
    if Rt.Atomic.compare_and_set c v 9 then Rt.yield rt

  (* 4: as 2, with an atomic read before the call: the read must not
     hide the missing label *)
  let rec drain_after_read (c : int Rt.atomic) (s : Tis.t) =
    let _ = Rt.Atomic.get c in
    match Tis.pop s with Some _ -> drain_after_read c s | None -> ()

  (* clean twin of 4: a registry label re-established every iteration *)
  let rec drain_labelled rt (c : int Rt.atomic) (s : Tis.t) =
    let _ = Rt.Atomic.get c in
    Rt.label rt Mm_core.Labels.desc_alloc;
    match Tis.pop s with Some _ -> drain_labelled rt c s | None -> ()
end
