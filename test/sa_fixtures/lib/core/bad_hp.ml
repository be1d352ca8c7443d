(* Fixture: S1 hp-protocol. Planted violations of the hazard protocol
   (protect -> re-validating read -> deref -> release on every path),
   three on a descriptor read from the shared head and two (4, 5 below)
   on a descriptor of unknown provenance. Planted inside a [Make (Rt)]
   functor body like the real tree (DESIGN.md §18), so mm-sa must
   descend into functor bodies. Compiled only for its typed AST. *)

module Make (Rt : Mm_runtime.Runtime_intf.S) = struct
  module Hp = Mm_lockfree.Hazard_pointers.Make (Rt)

  type nd = { mutable next_d : nd option; mutable seq : int }
  type t = { head : nd option Rt.atomic; hp : nd Hp.t }

  (* 1: dereference with no hazard protection at all *)
  let peek_raw t =
    match Rt.Atomic.get t.head with
    | None -> 0
    | Some d -> ( match d.next_d with Some _ -> 1 | None -> 0)

  (* 2: protected, but never re-validated by a fresh read of the source *)
  let peek_protected_stale t =
    match Rt.Atomic.get t.head with
    | None -> None
    | Some d ->
        Hp.protect t.hp ~slot:0 d;
        let n = d.next_d in
        Hp.clear t.hp ~slot:0;
        n

  (* 3: slot released on the validated path only — leaked when the
     re-validating read disagrees *)
  let pop_leaky t =
    match Rt.Atomic.get t.head with
    | None -> None
    | Some d ->
        Hp.protect t.hp ~slot:0 d;
        if Rt.Atomic.get t.head == Some d then begin
          let n = d.next_d in
          Hp.clear t.hp ~slot:0;
          n
        end
        else None

  (* 4 and 5 have no source cell to re-read, so any atomic read after
     the protect counts as the re-validation. *)

  (* 4: a descriptor passed in as a parameter, never protected *)
  let link_of (d : nd) = d.next_d

  (* 5: a helper's result, protected but never re-validated *)
  let first t =
    match Rt.Atomic.get t.head with Some d -> d | None -> raise Exit

  let first_link_stale t =
    let d = first t in
    Hp.protect t.hp ~slot:0 d;
    let n = d.next_d in
    Hp.clear t.hp ~slot:0;
    n

  (* clean twins of 4 and 5 *)
  let link_of_protected t (d : nd) =
    Hp.protect t.hp ~slot:0 d;
    let n = if Rt.Atomic.get t.head == Some d then d.next_d else None in
    Hp.clear t.hp ~slot:0;
    n

  let first_link t =
    let d = first t in
    Hp.protect t.hp ~slot:0 d;
    let n = if Rt.Atomic.get t.head == Some d then d.next_d else None in
    Hp.clear t.hp ~slot:0;
    n
end
