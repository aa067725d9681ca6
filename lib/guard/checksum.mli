(** Deterministic 64-bit FNV-1a checksums.

    The guard layer's integrity primitive: output surfaces are hashed
    after every batch and compared against a golden reference, turning
    silent data corruption into a detected, countable event. Incremental
    — feed surfaces one after another into the same accumulator. *)

(** The FNV-1a initial accumulator. *)
val offset_basis : int64

(** [add_sub acc b off len] mixes the [len] bytes of [b] from [off].
    Allocates nothing; every other entry point is built on it. *)
val add_sub : int64 -> Bytes.t -> int -> int -> int64

val add_string : int64 -> string -> int64
val add_bytes : int64 -> Bytes.t -> int64

(** Mix one 64-bit value, little-endian byte order. *)
val add_int64 : int64 -> int64 -> int64

(** [of_string s] = [add_string offset_basis s]. *)
val of_string : string -> int64

val of_bytes : Bytes.t -> int64

(** 16 lowercase hex digits. *)
val to_hex : int64 -> string
