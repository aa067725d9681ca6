(** A small fully-associative TLB with LRU replacement, generic in the
    entry payload so the CPU side can cache IA32 PTEs and the accelerator
    side can cache X3K-format entries. *)

type 'a t

(** [create ~entries] builds an empty TLB. [entries] must be positive. *)
val create : entries:int -> 'a t

val capacity : 'a t -> int

(** [lookup t ~vpage ~absent] returns the payload and refreshes LRU
    state, or [absent] on a miss. A hit allocates nothing. *)
val lookup : 'a t -> vpage:int -> absent:'a -> 'a

(** [insert t ~vpage payload] fills an entry, evicting the least recently
    used one when full. Re-inserting an existing vpage replaces it. *)
val insert : 'a t -> vpage:int -> 'a -> unit

(** [invalidate t ~vpage] drops one translation. *)
val invalidate : 'a t -> vpage:int -> unit

(** [flush t] drops everything (e.g. on context switch). *)
val flush : 'a t -> unit

val occupancy : 'a t -> int

(** Hit/miss counters of [lookup]. *)
val hits : 'a t -> int

val misses : 'a t -> int
val reset_stats : 'a t -> unit
