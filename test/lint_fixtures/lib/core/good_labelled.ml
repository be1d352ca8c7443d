(* Fixture: clean registry-labelled sites, plus a working suppression.
   Never compiled — parsed only by mm-lint's tests. *)

let pop cell rt =
  let cur = Rt.Atomic.get cell in
  Rt.label rt Labels.fx_pop;
  Rt.Atomic.compare_and_set cell cur 0

let push cell rt =
  let cur = Rt.Atomic.get cell in
  Rt.label rt Labels.fx_push;
  ignore (Rt.Atomic.compare_and_set cell cur 1);
  (* uses, so only the intended registry findings fire on labels.ml *)
  ignore Labels.fx_push_dup;
  ignore Labels.fx_unlisted

(* mm-lint: allow label-registry: fixture demonstrating that a
   suppression moves the finding to the suppressed list *)
let quiet cell rt =
  let cur = Rt.Atomic.get cell in
  Rt.label rt "fx_quiet";
  ignore (Rt.Atomic.compare_and_set cell cur 2)
