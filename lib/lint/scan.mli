(** Syntactic event extraction from a parsetree: per top-level item,
    every identifier reference and every application with its source
    position. The rules are membership tests over these flat streams;
    none depends on their order. *)

type reference = {
  rpath : string list;  (** flattened longident, e.g. ["Rt";"Atomic";"get"] *)
  rline : int;
  rcol : int;
}
(** An identifier, constructor, field, type or module reference. *)

type app = {
  fn : string list;
  args : (Asttypes.arg_label * Parsetree.expression) list;
  aline : int;
  acol : int;
}

type item = {
  start_line : int;
  end_line : int;
  refs : reference list;
  apps : app list;
}

val items : Parsetree.structure -> item list
val refs : Parsetree.structure -> reference list

val ends_with : suffix:string list -> string list -> bool
val is_label : string list -> bool

val string_arg : app -> string option
(** First literal-string argument of an application, if any. *)
