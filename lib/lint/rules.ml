(* Per-file rules R2, R3 and R6, plus R5's literal-label check. The
   cross-file half of R5 (registry consistency and usage) lives in
   Registry. *)

let path_str p = String.concat "." p

(* R2: raw multicore primitives are confined to the real runtime
   backend (real_rt.ml and its base rt_base.ml) — the one place that is
   allowed to know about OCaml multicore. Everything else, including the
   rest of lib/runtime and the baseline allocators, goes through an
   [Rt] instantiation so it runs under both backends. *)
let raw_roots = [ "Atomic"; "Domain"; "Mutex"; "Condition"; "Thread" ]

let raw_impl_basenames = [ "real_rt.ml"; "rt_base.ml" ]

let is_raw = function
  | root :: _ when List.mem root raw_roots -> true
  | "Stdlib" :: next :: _ when List.mem next raw_roots -> true
  | _ -> false

let r2 (src : Source.t) (it : Scan.item) =
  List.filter_map
    (fun (r : Scan.reference) ->
      if is_raw r.rpath then
        Some
          (Finding.v ~rule:Rule.Raw_primitive ~file:src.Source.path
             ~line:r.rline ~col:r.rcol
             (Printf.sprintf
                "raw primitive %s outside the real runtime backend \
                 (lib/runtime/real_rt.ml, rt_base.ml); go through a \
                 RUNTIME instantiation so the code also runs under the \
                 simulated runtime"
                (path_str r.rpath)))
      else None)
    it.refs

(* R3: nothing in the lock-free sections may reach the blocking lock
   substrate. (The dune dependency graph already forbids mm_core ->
   mm_baselines; this proves it at the source level, including against
   future dune edits.) *)
let blocking_roots = [ "Locks"; "Mm_baselines" ]

let r3 (src : Source.t) (it : Scan.item) =
  List.filter_map
    (fun (r : Scan.reference) ->
      match r.rpath with
      | root :: _ when List.mem root blocking_roots ->
          Some
            (Finding.v ~rule:Rule.Blocking_in_lockfree ~file:src.Source.path
               ~line:r.rline ~col:r.rcol
               (Printf.sprintf
                  "blocking %s reachable from lock-free code; lock-freedom \
                   must hold by construction"
                  (path_str r.rpath)))
      | _ -> None)
    it.refs

(* R5 (per-file half): Rt.label must be fed from the registries, never a
   literal, so the registry provably covers every instrumentation
   point. *)
let r5_literal (src : Source.t) (it : Scan.item) =
  List.filter_map
    (fun (a : Scan.app) ->
      if not (Scan.is_label a.fn) then None
      else
        match Scan.string_arg a with
        | None -> None
        | Some s ->
            Some
              (Finding.v ~rule:Rule.Label_registry ~file:src.Source.path
                 ~line:a.aline ~col:a.acol
                 (Printf.sprintf
                    "literal label %S; labels must come from Labels / \
                     Lf_labels so the checker can enumerate every \
                     instrumentation point"
                    s)))
    it.apps

(* R6: simulator-only control facilities — controlled schedules, label
   interception, kill/stall injection — are capabilities of one runtime
   backend, not of the Rt surface. Outside lib/runtime (which implements
   them) and lib/check (the explorer/monitor, which exists to drive
   them), a top-level item that touches any of them must also consult
   the [Rt.controllable] capability flag, so the behaviour stays gated
   on what the backend advertises (ROADMAP item 4). *)
let sim_facilities =
  [
    "current";
    "Kill";
    "Block_until";
    "Continue";
    "action";
    "sched_point";
    "sp_runnable";
    "sp_current";
    "sp_label";
  ]

let is_sim_facility = function
  | path -> (
      match List.rev path with
      | x :: "Sim" :: _ -> List.mem x sim_facilities
      | _ -> false)

let is_controlled_create (a : Scan.app) =
  Scan.ends_with ~suffix:[ "Sim"; "create" ] a.fn
  && List.exists
       (fun ((l : Asttypes.arg_label), _) ->
         match l with
         | Asttypes.Labelled ("on_label" | "sched")
         | Asttypes.Optional ("on_label" | "sched") ->
             true
         | _ -> false)
       a.args

let r6 (src : Source.t) (it : Scan.item) =
  let consults_capability =
    List.exists
      (fun (r : Scan.reference) ->
        Scan.ends_with ~suffix:[ "Rt"; "controllable" ] r.rpath)
      it.refs
  in
  if consults_capability then []
  else
    let of_refs =
      List.filter_map
        (fun (r : Scan.reference) ->
          if is_sim_facility r.rpath then
            Some
              (Finding.v ~rule:Rule.Sim_capability ~file:src.Source.path
                 ~line:r.rline ~col:r.rcol
                 (Printf.sprintf
                    "simulator control facility %s outside lib/runtime and \
                     lib/check without consulting Rt.controllable; gate \
                     sim-only behaviour on the runtime capability flag"
                    (path_str r.rpath)))
          else None)
        it.refs
    in
    let of_apps =
      List.filter_map
        (fun (a : Scan.app) ->
          if is_controlled_create a then
            Some
              (Finding.v ~rule:Rule.Sim_capability ~file:src.Source.path
                 ~line:a.aline ~col:a.acol
                 "Sim.create with a control hook (~on_label / ~sched) \
                  outside lib/runtime and lib/check without consulting \
                  Rt.controllable; gate sim-only behaviour on the runtime \
                  capability flag")
          else None)
        it.apps
    in
    of_refs @ of_apps

let check_file (src : Source.t) =
  let items = Scan.items src.Source.structure in
  let section = src.Source.section in
  let lockfree = Source.in_lockfree_scope section in
  let raw_allowed =
    match section with
    | Source.Runtime ->
        List.mem (Filename.basename src.Source.path) raw_impl_basenames
    | _ -> false
  in
  let sim_control_allowed =
    match section with
    | Source.Runtime | Source.Check -> true
    | _ -> false
  in
  List.concat_map
    (fun it ->
      List.concat
        [
          (if raw_allowed then [] else r2 src it);
          (if lockfree then r3 src it else []);
          (if lockfree then r5_literal src it else []);
          (if sim_control_allowed then [] else r6 src it);
        ])
    items
