(** The mm-lint rule set: the syntactic source disciplines behind the
    paper's progress argument (DESIGN.md §11). The flow-sensitive ones
    (every CAS window labelled, every descriptor link read behind a
    validated hazard pointer) are mm-sa's label-dominance and
    hp-protocol analyses. Rule names are the tokens used by findings,
    the [--rule] CLI filter and in-source suppressions
    [(* mm-lint: allow <rule> *)]. *)

type t =
  | Raw_primitive  (** R2 *)
  | Blocking_in_lockfree  (** R3 *)
  | Label_registry  (** R5 *)
  | Sim_capability  (** R6 — the capability boundary of ROADMAP item 4 *)

val all : t list
val name : t -> string
val of_name : string -> t option
val describe : t -> string
