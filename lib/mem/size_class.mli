(** Size classes (paper §3.1).

    Superblocks are partitioned among size classes by block size; a block
    comprises the user payload plus the 8-byte descriptor-pointer prefix.
    Classes run in multiples of 16 bytes up to 256 and then in coarser
    geometric steps up to [sbsize / 8], so every superblock holds at least
    8 blocks; larger requests bypass the superblock machinery and go
    straight to the OS, as in the paper. *)

type t

val make : ?sbsize:int -> unit -> t
(** [make ~sbsize ()] builds the class table for superblocks of [sbsize]
    bytes (default 16 KiB; must be a power of two ≥ 4 KiB). *)

val sbsize : t -> int
val count : t -> int
(** Number of classes. *)

val block_size : t -> int -> int
(** Block size (payload + prefix) of class [i]. Monotonically increasing. *)

val blocks_per_superblock : t -> int -> int
(** [sbsize / block_size i]. *)

val large_threshold : t -> int
(** Largest request (payload bytes) served from superblocks. *)

val large : int
(** [-1]: the {!class_of_request} result for a request served as a large
    block. *)

val class_of_request : t -> int -> int
(** Smallest class whose blocks fit a request of [n] payload bytes, or
    {!large} if the request must be served as a large block. [n >= 0].
    An unboxed result: the malloc fast paths call this once per
    operation, and an [int option] would cost them a heap block. *)
