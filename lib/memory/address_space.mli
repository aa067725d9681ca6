(** A process's shared virtual address space.

    One address space is shared by the OS-managed IA32 sequencer and all
    exo-sequencers — the central idea of EXO. The space owns the IA32-format
    page table; allocation is lazy (demand paging), so first-touch from the
    CPU takes a minor fault and first-touch from the accelerator goes
    through the full ATR proxy path.

    Virtual reads/writes here are *functional* accesses used by loaders,
    golden-data setup and the proxy handler; timing-model clients (CPU and
    accelerator simulators) perform their own TLB/cache accounting and then
    come here for data. *)

type t

val create : Phys_mem.t -> t
val phys_mem : t -> Phys_mem.t
val page_table : t -> Page_table.t

(** [alloc t ~name ~bytes ~align] reserves a virtual range (no frames are
    committed). [align] must be a power of two [>= 16]. *)
val alloc : t -> name:string -> bytes:int -> align:int -> int

(** Named regions: [(name, base, bytes)]. *)
val regions : t -> (string * int * int) list

(** [fault_in t ~vaddr] ensures the page holding [vaddr] is mapped,
    allocating and mapping a frame if needed (the OS page-fault handler).
    Returns [`Already] or [`Faulted]. Faulting an address outside any
    allocated region raises [Segfault]. *)
val fault_in : t -> vaddr:int -> [ `Already | `Faulted ]

exception Segfault of int

(** Translate for data access, faulting in on demand. One page-table
    walk, which sets the page's accessed bit (and dirty bit for
    [write]); a faulted-in page is mapped with those bits already set. *)
val translate : t -> vaddr:int -> write:bool -> int

(** [lookup t ~vaddr] translates without faulting in: the physical
    address, or [-1] when the page is unmapped. Sets the accessed bit of
    a mapped page, like a read through {!translate}. *)
val lookup : t -> vaddr:int -> int

(** Demand-paged virtual accessors (may straddle pages). An access
    inside one page translates once; a straddling one is split into
    bytes in ascending address order. *)
val read_u8 : t -> int -> int

val read_u16 : t -> int -> int
val read_u32 : t -> int -> int32
val write_u8 : t -> int -> int -> unit
val write_u16 : t -> int -> int -> unit
val write_u32 : t -> int -> int32 -> unit

(** [read_u32]/[write_u32] on OCaml ints ([read_i32] sign-extends), so
    no [int32] is boxed. *)
val read_i32 : t -> int -> int

val write_i32 : t -> int -> int -> unit
val read_bytes : t -> vaddr:int -> len:int -> bytes
val write_bytes : t -> vaddr:int -> bytes -> unit

(** [write_sub t ~vaddr src ~off ~len] writes [len] bytes of [src] from
    [off], like [write_bytes] on that slice but without copying it. *)
val write_sub : t -> vaddr:int -> bytes -> off:int -> len:int -> unit

(** [fold_range t ~vaddr ~len ~init f] folds [f acc data off n] over the
    range page by page, in ascending address order: the [n] bytes at
    [off] in [data] are the range's bytes in that page, read in place.
    Each page is translated as a data read (accessed bit set, unmapped
    page faulted in); {!read_bytes} is this fold with a copy. [f] must
    not write [data]. *)
val fold_range :
  t ->
  vaddr:int ->
  len:int ->
  init:'a ->
  ('a -> bytes -> int -> int -> 'a) ->
  'a

(** Number of minor faults serviced so far. *)
val minor_faults : t -> int
