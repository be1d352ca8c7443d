open Parsetree

type reference = { rpath : string list; rline : int; rcol : int }

type app = {
  fn : string list;
  args : (Asttypes.arg_label * expression) list;
  aline : int;
  acol : int;
}

type item = {
  start_line : int;
  end_line : int;
  refs : reference list;
  apps : app list;
}

let pos_of (loc : Location.t) =
  (loc.loc_start.pos_lnum, loc.loc_start.pos_cnum - loc.loc_start.pos_bol)

let collect_item (si : structure_item) =
  let refs = ref [] and apps = ref [] in
  let add_ref lid (loc : Location.t) =
    let rline, rcol = pos_of loc in
    refs := { rpath = Longident.flatten lid; rline; rcol } :: !refs
  in
  let default = Ast_iterator.default_iterator in
  let iterator =
    {
      default with
      expr =
        (fun self e ->
          (match e.pexp_desc with
          | Pexp_ident { txt; loc }
          | Pexp_construct ({ txt; loc }, _)
          | Pexp_field (_, { txt; loc }) ->
              add_ref txt loc
          | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) ->
              let aline, acol = pos_of e.pexp_loc in
              apps := { fn = Longident.flatten txt; args; aline; acol } :: !apps
          | _ -> ());
          default.expr self e);
      typ =
        (fun self t ->
          (match t.ptyp_desc with
          | Ptyp_constr ({ txt; loc }, _) -> add_ref txt loc
          | _ -> ());
          default.typ self t);
      module_expr =
        (fun self m ->
          (match m.pmod_desc with
          | Pmod_ident { txt; loc } -> add_ref txt loc
          | _ -> ());
          default.module_expr self m);
    }
  in
  iterator.structure_item iterator si;
  {
    start_line = si.pstr_loc.loc_start.pos_lnum;
    end_line = si.pstr_loc.loc_end.pos_lnum;
    refs = !refs;
    apps = !apps;
  }

(* A functorized source file is a single top-level [module Make (Rt : _)
   = struct ... end] item; the per-item scoping of the rules (R6's
   capability check, suppression coverage) must keep working on the
   definitions inside it, so module bodies — through functor parameters
   and signature constraints — are split back into their constituent
   items. *)
let rec flatten_item (si : structure_item) =
  (* Only functors are transparent: a plain nested [module M = struct
     ... end] stays one item, exactly as before the functorization, so
     a suppression comment ahead of it still covers its whole body. *)
  let rec functor_body_items (me : module_expr) =
    match me.pmod_desc with
    | Pmod_functor (_, body) -> (
        let rec items (me : module_expr) =
          match me.pmod_desc with
          | Pmod_structure items -> Some items
          | Pmod_functor (_, body) -> items body
          | Pmod_constraint (m, _) -> items m
          | _ -> None
        in
        items body)
    | Pmod_constraint (m, _) -> functor_body_items m
    | _ -> None
  in
  match si.pstr_desc with
  | Pstr_module { pmb_expr; _ } -> (
      match functor_body_items pmb_expr with
      | Some items -> List.concat_map flatten_item items
      | None -> [ si ])
  | _ -> [ si ]

let items structure =
  List.map collect_item (List.concat_map flatten_item structure)

let refs structure = List.concat_map (fun i -> i.refs) (items structure)

(* ------------------------------------------------------------------ *)
(* Recognizers shared by the rules. *)

let rec ends_with ~suffix path =
  let lp = List.length path and ls = List.length suffix in
  if lp < ls then false
  else if lp = ls then path = suffix
  else match path with [] -> false | _ :: tl -> ends_with ~suffix tl

let is_label fn = ends_with ~suffix:[ "Rt"; "label" ] fn

let string_arg (a : app) =
  List.find_map
    (fun (_, e) ->
      match e.pexp_desc with
      | Pexp_constant (Pconst_string (s, _, _)) -> Some s
      | _ -> None)
    a.args
