(** Simulated physical memory.

    Memory is organised as 4 KiB frames allocated on demand from a fixed
    pool. Page tables, surface data and the shred work queue all live in
    this memory — the IA32 proxy handler walks page tables by issuing reads
    against it, exactly as the EXO firmware does on real hardware. *)

type t

val page_size : int (* 4096 *)
val page_shift : int (* 12 *)

(** [create ~frames] builds a physical memory of [frames] 4 KiB frames. *)
val create : frames:int -> t

val total_frames : t -> int
val frames_allocated : t -> int

(** Allocate a zeroed frame; returns the frame number.
    Raises [Out_of_memory_frames] when the pool is exhausted. *)
val alloc_frame : t -> int

exception Out_of_memory_frames

(** [free_frame t f] returns [f] to the pool. Double frees are rejected. *)
val free_frame : t -> int -> unit

(** Reads and writes take physical byte addresses. Accesses must stay
    within one frame ([read_u8] .. [read_u64] never straddle frames in the
    simulator; callers split at frame boundaries). Unallocated frames read
    as zero and are materialised on write; writing beyond the pool is
    rejected. None of these allocate except [read_u32]/[read_u64], which
    box their result, and the first write to a frame. *)

val read_u8 : t -> int -> int
val read_u16 : t -> int -> int
val read_u32 : t -> int -> int32
val read_u64 : t -> int -> int64
val write_u8 : t -> int -> int -> unit
val write_u16 : t -> int -> int -> unit
val write_u32 : t -> int -> int32 -> unit
val write_u64 : t -> int -> int64 -> unit

(** 32-bit little-endian words as OCaml ints: [read_i32] sign-extends,
    [write_i32] stores the low 32 bits. The interpreters use these so a
    word access never boxes an [int32]. *)
val read_i32 : t -> int -> int

val write_i32 : t -> int -> int -> unit

(** Bulk transfer helpers (may straddle frames). *)
val blit_to_bytes : t -> src:int -> dst:bytes -> dst_off:int -> len:int -> unit
val blit_of_bytes : t -> src:bytes -> src_off:int -> dst:int -> len:int -> unit

(** [copy t ~src ~dst ~len] copies between physical ranges. *)
val copy : t -> src:int -> dst:int -> len:int -> unit
