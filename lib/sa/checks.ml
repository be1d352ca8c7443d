(* The S1-S4 typestate analyses over per-function CFGs (DESIGN.md §16).

   Each analysis is a forward may-analysis: states are small finite
   lattices joined by union, so a fact like "unprotected on some path"
   survives a join and is reported. S1-S3 are per-function; S4 adds an
   interprocedural demand fixpoint so a function whose CAS window label
   is a parameter (Tagged_id_stack.push/pop) pushes the obligation to
   its call sites. *)

module SM = Map.Make (String)
module SS = Set.Make (String)
module IM = Map.Make (Int)

let finding analysis ~file ~line ~col msg =
  Mm_report.Finding.v ~rule:(Analysis.name analysis) ~file ~line ~col msg

let node_finding analysis (fn : Cfg.fn) (n : Cfg.node) msg =
  finding analysis ~file:fn.Cfg.f_file ~line:n.Cfg.n_line ~col:n.Cfg.n_col msg

(* ================================================================== *)
(* S1 hp-protocol: protect -> re-validating read -> deref; slot
   released consistently across exits.

   Per-value masks over {unprot, prot, valid}, with the value's source
   cell when it derives from an atomic read. A value of unknown
   provenance (a parameter, a helper's result) has no source cell to
   re-read, so any atomic read after its protect validates it. A value
   protected on only one side of a join is unprotected on the other.
   Backedges demote valid -> prot: the slot still holds the value, but
   the validation belongs to the previous iteration. *)

let unprot = 1
let prot = 2
let valid = 4

type s1 = {
  hp : (int * string option) SM.t;  (* value key -> mask, source cell *)
  held : SS.t;  (* possibly-occupied hazard slots (by value key) *)
}

let s1_join a b =
  {
    hp =
      SM.merge
        (fun _ x y ->
          match (x, y) with
          | Some (m1, c1), Some (m2, c2) ->
              Some (m1 lor m2, if c1 = None then c2 else c1)
          | Some (m, c), None | None, Some (m, c) -> Some (m lor unprot, c)
          | None, None -> None)
        a.hp b.hp;
    held = SS.union a.held b.held;
  }

let s1_equal a b =
  SM.equal ( = ) a.hp b.hp && SS.equal a.held b.held

let s1_demote m = (if m land valid <> 0 then prot else 0) lor (m land (prot lor unprot))

let s1_transfer (node : Cfg.node) s =
  match node.Cfg.n_ev with
  | Cfg.Eprotect { v } ->
      let key = Cfg.value_key v in
      {
        hp = SM.add key (prot, Option.map fst (Cfg.read_source v)) s.hp;
        (* single-slot approximation: a new protect supersedes *)
        held = SS.singleton key;
      }
  | Cfg.Eclear ->
      {
        hp = SM.map (fun (_, c) -> (unprot, c)) s.hp;
        held = SS.empty;
      }
  | Cfg.Eread { cell } ->
      {
        s with
        hp =
          SM.map
            (fun (m, c) ->
              if m land prot <> 0 && (c = None || c = Some cell) then
                (valid, c)
              else (m, c))
            s.hp;
      }
  | _ -> s

let s1_edge kind s =
  match kind with
  | Cfg.Seq -> s
  | Cfg.Back_strong | Cfg.Back_weak ->
      { s with hp = SM.map (fun (m, c) -> (s1_demote m, c)) s.hp }

let s1_check (fn : Cfg.fn) =
  let cfg = fn.Cfg.cfg in
  let init = { hp = SM.empty; held = SS.empty } in
  let ins =
    Dataflow.fixpoint cfg ~init ~equal:s1_equal ~join:s1_join
      ~transfer:s1_transfer ~edge:s1_edge
  in
  let out = ref [] in
  Array.iteri
    (fun i node ->
      match (ins.(i), node.Cfg.n_ev) with
      | Some s, Cfg.Ederef { v; field } -> (
          match SM.find_opt (Cfg.value_key v) s.hp with
          | None ->
              out :=
                node_finding Analysis.Hp_protocol fn node
                  (Printf.sprintf
                     "dereference of .%s on a descriptor without hazard \
                      protection (protect, then re-validate with a fresh \
                      read, before dereferencing)"
                     field)
                :: !out
          | Some (m, _) ->
              if m land unprot <> 0 then
                out :=
                  node_finding Analysis.Hp_protocol fn node
                    (Printf.sprintf
                       "dereference of .%s may happen without hazard \
                        protection on some path" field)
                  :: !out
              else if m land prot <> 0 then
                out :=
                  node_finding Analysis.Hp_protocol fn node
                    (Printf.sprintf
                       "descriptor is hazard-protected but not re-validated \
                        by a fresh atomic read before .%s is dereferenced"
                       field)
                  :: !out)
      | _ -> ())
    cfg.Cfg.nodes;
  (* release on every path: flag exits that may still hold a slot when
     another exit releases it *)
  let exits = Dataflow.exit_outs cfg ~transfer:s1_transfer ins in
  let holding = List.filter (fun (_, s) -> not (SS.is_empty s.held)) exits in
  let releasing = List.exists (fun (_, s) -> SS.is_empty s.held) exits in
  if releasing && holding <> [] then
    List.iter
      (fun (node, _) ->
        out :=
          node_finding Analysis.Hp_protocol fn node
            "hazard slot is released on some return paths but may still be \
             held on this one"
          :: !out)
      holding;
  !out

(* ================================================================== *)
(* S2 cas-loop-progress, two obligations:

   (a) No stale-expected loop: a result-bearing CAS retried through a
   strong backedge must take its expected value from a read inside the
   same retry cycle, or the loop can never succeed once the word has
   changed. Checked structurally: for every strong backedge, the cycle
   is the set of nodes on a forward path from the backedge target to
   its source; a used CAS in the cycle whose expected value derives
   from a read outside the cycle is stale. Inner data loops (for,
   inlined iterators, a chaining helper) are cycles that do not contain
   the CAS, so reads made before them stay fresh.

   (b) At most one result-bearing CAS per labelled window (two commits
   under one label would be two linearization points with one name).
   Helping CASes (ignore (CAS ...)) are exempt from both. *)

let l_unarmed = 1
let l_armed = 2
let l_consumed = 4

let reachable adj start n =
  let seen = Array.make n false in
  let q = Queue.create () in
  Queue.add start q;
  seen.(start) <- true;
  while not (Queue.is_empty q) do
    let i = Queue.pop q in
    List.iter
      (fun j ->
        if not seen.(j) then begin
          seen.(j) <- true;
          Queue.add j q
        end)
      adj.(i)
  done;
  seen

let s2_stale_check (fn : Cfg.fn) =
  let cfg = fn.Cfg.cfg in
  let n = Array.length cfg.Cfg.nodes in
  let fwd = Array.make n [] and rev = Array.make n [] in
  let backs = ref [] in
  Array.iter
    (fun (node : Cfg.node) ->
      List.iter
        (fun (k, j) ->
          match k with
          | Cfg.Seq ->
              fwd.(node.Cfg.n_id) <- j :: fwd.(node.Cfg.n_id);
              rev.(j) <- node.Cfg.n_id :: rev.(j)
          | Cfg.Back_strong -> backs := (node.Cfg.n_id, j) :: !backs
          | Cfg.Back_weak -> ())
        node.Cfg.n_succ)
    cfg.Cfg.nodes;
  let out = ref [] in
  List.iter
    (fun (src, head) ->
      let from_head = reachable fwd head n in
      let to_src = reachable rev src n in
      let in_cycle i = from_head.(i) && to_src.(i) in
      Array.iter
        (fun (node : Cfg.node) ->
          match node.Cfg.n_ev with
          | Cfg.Ecas { expected; used = true; cell; _ }
            when in_cycle node.Cfg.n_id -> (
              match Cfg.read_source expected with
              | Some (_, rid) when rid < n && not (in_cycle rid) ->
                  out :=
                    node_finding Analysis.Cas_loop_progress fn node
                      (Printf.sprintf
                         "CAS on %s retries with an expected value read \
                          outside the retry loop: re-read the contended \
                          word on every iteration" cell)
                    :: !out
              | _ -> ())
          | _ -> ())
        cfg.Cfg.nodes)
    !backs;
  !out

let s2_transfer (node : Cfg.node) s =
  match node.Cfg.n_ev with
  | Cfg.Elabel _ -> l_armed
  | Cfg.Ecas { used = true; _ } ->
      s land (l_unarmed lor l_consumed)
      lor (if s land l_armed <> 0 then l_consumed else 0)
  | _ -> s

let s2_edge kind s =
  match kind with
  | Cfg.Seq | Cfg.Back_weak -> s
  | Cfg.Back_strong -> l_unarmed

let s2_check (fn : Cfg.fn) =
  let cfg = fn.Cfg.cfg in
  let ins =
    Dataflow.fixpoint cfg ~init:l_unarmed ~equal:( = ) ~join:( lor )
      ~transfer:s2_transfer ~edge:s2_edge
  in
  let out = ref (s2_stale_check fn) in
  Array.iteri
    (fun i node ->
      match (ins.(i), node.Cfg.n_ev) with
      | Some s, Cfg.Ecas { used = true; _ } ->
          if s land l_consumed <> 0 then
            out :=
              node_finding Analysis.Cas_loop_progress fn node
                "second result-bearing CAS in the same labelled window: \
                 each label covers exactly one linearizing CAS"
              :: !out
      | _ -> ())
    cfg.Cfg.nodes;
  !out

(* ================================================================== *)
(* S3 write-before-publish: plain stores whose roots feed the desired
   value of a publishing CAS must be ordered by Rt.fence first. *)

let s3_transfer (node : Cfg.node) s =
  match node.Cfg.n_ev with
  | Cfg.Ewrite { roots } -> SS.union s (SS.of_list roots)
  | Cfg.Efence -> SS.empty
  | _ -> s

let s3_check (fn : Cfg.fn) =
  let cfg = fn.Cfg.cfg in
  let ins =
    Dataflow.fixpoint cfg ~init:SS.empty ~equal:SS.equal ~join:SS.union
      ~transfer:s3_transfer ~edge:(fun _ s -> s)
  in
  let out = ref [] in
  Array.iteri
    (fun i node ->
      match (ins.(i), node.Cfg.n_ev) with
      | Some s, Cfg.Ecas { cell; desired_deps; _ } ->
          let dirty = List.filter (fun r -> SS.mem r s) desired_deps in
          if dirty <> [] then
            out :=
              node_finding Analysis.Write_before_publish fn node
                (Printf.sprintf
                   "plain stores into the block being published by the CAS \
                    on %s are not ordered by Rt.fence on every path to the \
                    publish" cell)
              :: !out
      | _ -> ())
    cfg.Cfg.nodes;
  !out

(* ================================================================== *)
(* S4 label-dominance: every CAS is dominated by an Rt.label on every
   CFG path, re-established inside each retry loop and placed after
   the read that opens the CAS window. Intraprocedurally the armed
   state is a may-set over

     uentry     no label since function entry
     uback      no label since a retry backedge
     uread      no label since the last atomic read
     reg        dominated by a registry-constant label
     param:<p>  dominated by a label taken from parameter/field <p>
     other      dominated by a label the analysis cannot classify

   A read adds uread and keeps the other tokens. uback or uread at a
   CAS, helping CASes included, is an immediate finding: the explorer
   can only interpose in a read->CAS window that holds a label. uentry
   and param demands flow to call sites: the interprocedural fixpoint
   discharges them with a registry-labelled argument, a module-level
   create override, or a dominating registry label at the call site.
   An uentry demand reaching a call made under uread is a finding
   there: the caller's read opens a window the callee's CAS closes. *)

let t_uentry = "uentry"
let t_uback = "uback"
let t_uread = "uread"
let t_reg = "reg"
let t_other = "other"
let t_param p = "param:" ^ p

let s4_transfer (node : Cfg.node) s =
  match node.Cfg.n_ev with
  | Cfg.Elabel { kind } ->
      SS.singleton
        (match kind with
        | Cfg.Kreg _ -> t_reg
        | Cfg.Kparam p -> t_param p
        | Cfg.Kother -> t_other)
  | Cfg.Eread _ -> SS.add t_uread s
  | _ -> s

let s4_edge kind s =
  match kind with
  | Cfg.Seq | Cfg.Back_weak -> s
  | Cfg.Back_strong -> SS.singleton t_uback

let param_tokens s =
  SS.fold
    (fun t acc ->
      if String.length t > 6 && String.sub t 0 6 = "param:" then
        String.sub t 6 (String.length t - 6) :: acc
      else acc)
    s []

type demand = Dentry | Dparam of string

type origin = { o_line : int; o_col : int; o_why : string }

type call = {
  c_fn : string list;
  c_labeled : (string * Cfg.lkind) list;
  c_armed : SS.t;
  c_node : Cfg.node;
}

type summary = {
  s_fn : Cfg.fn;
  s_calls : call list;
  mutable s_demands : (demand * origin) list;
}

let add_demand s d origin =
  if List.mem_assoc d s.s_demands then false
  else begin
    s.s_demands <- (d, origin) :: s.s_demands;
    true
  end

let s4_summarize (fn : Cfg.fn) =
  let cfg = fn.Cfg.cfg in
  let ins =
    Dataflow.fixpoint cfg ~init:(SS.singleton t_uentry) ~equal:SS.equal
      ~join:SS.union ~transfer:s4_transfer ~edge:s4_edge
  in
  let findings = ref [] in
  let calls = ref [] in
  let summary = { s_fn = fn; s_calls = []; s_demands = [] } in
  Array.iteri
    (fun i node ->
      match (ins.(i), node.Cfg.n_ev) with
      | Some armed, Cfg.Ecas { cell; _ } ->
          let origin why = { o_line = node.Cfg.n_line; o_col = node.Cfg.n_col; o_why = why } in
          if SS.mem t_uback armed then
            findings :=
              node_finding Analysis.Label_dominance fn node
                (Printf.sprintf
                   "CAS on %s is not dominated by an Rt.label inside its \
                    retry loop: the label must be re-established on every \
                    iteration" cell)
              :: !findings
          else if SS.mem t_uread armed then
            findings :=
              node_finding Analysis.Label_dominance fn node
                (Printf.sprintf
                   "CAS on %s has no Rt.label between the shared-word read \
                    and the CAS on some path: the retry window is invisible \
                    to the schedule explorer" cell)
              :: !findings
          else begin
            if SS.mem t_uentry armed then
              ignore
                (add_demand summary Dentry
                   (origin (Printf.sprintf "CAS on %s" cell)));
            List.iter
              (fun p ->
                ignore
                  (add_demand summary (Dparam p)
                     (origin (Printf.sprintf "CAS on %s labelled by %s" cell p))))
              (param_tokens armed)
          end
      | Some armed, Cfg.Ecall { fn = c_fn; labeled } ->
          calls := { c_fn; c_labeled = labeled; c_armed = armed; c_node = node } :: !calls
      | _ -> ())
    cfg.Cfg.nodes;
  ({ summary with s_calls = List.rev !calls }, !findings)

(* --- interprocedural resolution ----------------------------------- *)

type unit_info = {
  ui_module : string;
  ui_aliases : (string * string list) list;
}

let resolve_callee ~known ~(infos : unit_info SM.t) caller_module path =
  match List.rev path with
  | [] -> None
  | name :: rev_mods -> (
      let mods = List.rev rev_mods in
      match mods with
      | [] -> Some (caller_module, name)
      | first :: rest -> (
          let expanded =
            match SM.find_opt caller_module infos with
            | Some ui -> (
                match List.assoc_opt first ui.ui_aliases with
                | Some target -> target @ rest
                | None -> mods)
            | None -> mods
          in
          (* the innermost segment naming an analyzed unit wins:
             Mm_lockfree.Tagged_id_stack -> Tagged_id_stack *)
          match
            List.fold_left
              (fun acc seg -> if SS.mem seg known then Some seg else acc)
              None expanded
          with
          | Some m -> Some (m, name)
          | None -> None))

let is_kreg = function Cfg.Kreg _ -> true | _ -> false

let s4_interproc ~(infos : unit_info SM.t) (summaries : summary list) =
  let known =
    SS.of_list (List.map (fun s -> s.s_fn.Cfg.f_unit) summaries)
  in
  let by_key = Hashtbl.create 64 in
  List.iter
    (fun s ->
      Hashtbl.replace by_key (s.s_fn.Cfg.f_unit, s.s_fn.Cfg.f_name) s)
    summaries;
  (* module-level label overrides: module M called Callee.create with
     ~p:<registry constant> somewhere, so Callee instances in M carry a
     registry label for parameter p *)
  let overrides = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let m = s.s_fn.Cfg.f_unit in
      List.iter
        (fun c ->
          match
            resolve_callee ~known ~infos m c.c_fn
          with
          | Some (callee_m, "create") ->
              List.iter
                (fun (p, k) ->
                  if is_kreg k then Hashtbl.replace overrides (m, callee_m, p) ())
                c.c_labeled
          | _ -> ())
        s.s_calls)
    summaries;
  let findings = ref [] in
  let flagged = Hashtbl.create 16 in
  let flag fn node msg =
    let key = (fn.Cfg.f_file, node.Cfg.n_line, msg) in
    if not (Hashtbl.mem flagged key) then begin
      Hashtbl.replace flagged key ();
      findings := node_finding Analysis.Label_dominance fn node msg :: !findings
    end
  in
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && !rounds < 64 do
    changed := false;
    incr rounds;
    List.iter
      (fun s ->
        let m = s.s_fn.Cfg.f_unit in
        List.iter
          (fun c ->
            match resolve_callee ~known ~infos m c.c_fn with
            | None -> ()
            | Some key -> (
                match Hashtbl.find_opt by_key key with
                | None -> ()
                | Some callee ->
                    List.iter
                      (fun (d, dorigin) ->
                        let discharged =
                          match d with
                          | Dparam p ->
                              List.exists
                                (fun (n, k) -> n = p && is_kreg k)
                                c.c_labeled
                              || Hashtbl.mem overrides (m, fst key, p)
                          | Dentry -> false
                        in
                        if not discharged then begin
                          let what =
                            match d with
                            | Dparam p ->
                                Printf.sprintf
                                  "%s.%s (its %s is a label parameter)"
                                  (fst key) (snd key) p
                            | Dentry ->
                                Printf.sprintf
                                  "%s.%s (its %s relies on a label armed by \
                                   the caller)" (fst key) (snd key)
                                  dorigin.o_why
                          in
                          if SS.mem t_uback c.c_armed then
                            flag s.s_fn c.c_node
                              (Printf.sprintf
                                 "call to %s inside a retry loop without a \
                                  dominating Rt.label" what)
                          else if d = Dentry && SS.mem t_uread c.c_armed then
                            flag s.s_fn c.c_node
                              (Printf.sprintf
                                 "call to %s after a shared-word read with no \
                                  Rt.label in between on some path" what)
                          else begin
                            if SS.mem t_uentry c.c_armed then begin
                              let o =
                                {
                                  o_line = c.c_node.Cfg.n_line;
                                  o_col = c.c_node.Cfg.n_col;
                                  o_why = "call to " ^ what;
                                }
                              in
                              if add_demand s Dentry o then changed := true
                            end;
                            List.iter
                              (fun q ->
                                let o =
                                  {
                                    o_line = c.c_node.Cfg.n_line;
                                    o_col = c.c_node.Cfg.n_col;
                                    o_why = "call to " ^ what;
                                  }
                                in
                                if add_demand s (Dparam q) o then
                                  changed := true)
                              (param_tokens c.c_armed)
                          end
                        end)
                      callee.s_demands))
          s.s_calls)
      summaries
  done;
  (* Entry demands that no analyzed caller can vouch for: if nothing in
     the analyzed units calls the function at all, the obligation
     escapes to the public API and is reported at its origins. Param
     demands at roots are fine: the parameter's default is a registry
     constant. *)
  let called = Hashtbl.create 64 in
  List.iter
    (fun s ->
      List.iter
        (fun c ->
          match resolve_callee ~known ~infos s.s_fn.Cfg.f_unit c.c_fn with
          | Some key -> Hashtbl.replace called key ()
          | None -> ())
        s.s_calls)
    summaries;
  List.iter
    (fun s ->
      let key = (s.s_fn.Cfg.f_unit, s.s_fn.Cfg.f_name) in
      if not (Hashtbl.mem called key) then
        List.iter
          (fun (d, o) ->
            match d with
            | Dentry ->
                findings :=
                  finding Analysis.Label_dominance ~file:s.s_fn.Cfg.f_file
                    ~line:o.o_line ~col:o.o_col
                    (Printf.sprintf
                       "%s reaches an exported entry point %s.%s with no \
                        dominating Rt.label on some path"
                       o.o_why s.s_fn.Cfg.f_unit s.s_fn.Cfg.f_name)
                  :: !findings
            | Dparam _ -> ())
          s.s_demands)
    summaries;
  !findings

(* ================================================================== *)

let analyze ~analyses (units : Tast.unit_t list) =
  let want a = List.mem a analyses in
  let fns = List.concat_map Cfg.functions_of_unit units in
  let per_fn =
    List.concat_map
      (fun fn ->
        (if want Analysis.Hp_protocol then s1_check fn else [])
        @ (if want Analysis.Cas_loop_progress then s2_check fn else [])
        @ (if want Analysis.Write_before_publish then s3_check fn else []))
      fns
  in
  let s4 =
    if want Analysis.Label_dominance then begin
      let infos =
        List.fold_left
          (fun acc (u : Tast.unit_t) ->
            SM.add u.Tast.u_module
              {
                ui_module = u.Tast.u_module;
                ui_aliases = Cfg.collect_aliases u.Tast.u_str.str_items;
              }
              acc)
          SM.empty units
      in
      let pairs = List.map s4_summarize fns in
      let summaries = List.map fst pairs in
      List.concat_map snd pairs @ s4_interproc ~infos summaries
    end
    else []
  in
  List.sort_uniq Mm_report.Finding.compare (per_fn @ s4)

