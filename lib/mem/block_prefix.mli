(** The 8-byte block prefix (paper §3.1, Fig. 6 lines 2–5).

    Every allocated block is preceded by one word. For a small block it
    holds a pointer to (here: the id of) the descriptor of its superblock;
    for a large block it holds the block's total length with a tag bit
    set — the paper's "large block bit" ("desc holds sz+1"). [free]
    dispatches on this word.

    Beyond the paper, a third kind supports [aligned_alloc]
    ({!Alloc_ops}): an {e offset} word sits just below an
    alignment-advanced payload and records the distance back to the
    underlying block's payload. *)

val small : desc_id:int -> int
val large : total_len:int -> int
val offset : delta:int -> int

val is_large : int -> bool
val is_offset : int -> bool

val desc_id : int -> int
(** Only meaningful for small prefixes. *)

val large_len : int -> int
(** Only meaningful when [is_large w]. *)

val offset_delta : int -> int
(** Only meaningful when [is_offset w]. *)

val base_payload : int -> int -> int
(** [base_payload payload w], [w] being the word just below [payload]:
    the payload of the block [payload] lies in — [payload] itself, or for
    an offset marker the payload [offset_delta w] bytes further down. *)

val prefix_bytes : int
(** 8: the distance between a block's base and its payload. *)
