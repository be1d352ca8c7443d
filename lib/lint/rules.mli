(** The per-file rules: R2 raw-primitive, R3 blocking-in-lockfree,
    R6 sim-capability, and R5's literal-label check. Which rules apply
    is decided by the file's {!Source.section}; the cross-file half of
    R5 is {!Registry.check}. *)

val check_file : Source.t -> Finding.t list
(** Findings, unordered, before suppression filtering. *)
