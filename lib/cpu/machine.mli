(** The IA32-class CPU sequencer: a timing-modelled VIA32 interpreter.

    One [Machine.t] is the paper's OS-managed IA32 sequencer. It executes
    VIA32 programs against the shared {!Exochi_memory.Address_space},
    accounting time per instruction class and through a TLB + L1 + L2
    cache hierarchy in front of the shared {!Exochi_memory.Bus}. The EXO
    proxy handlers (ATR, CEH) and the CHI runtime inject their costs with
    {!add_time_ps} / {!add_overhead_ps}.

    Calibration (Core 2 Duo class): 2.4 GHz, ~2 simple ALU ops per cycle,
    one 128-bit (4-lane) SSE op per cycle, L1 32 KiB / 3 cycles, L2 4 MiB
    / 14 cycles, DRAM via the shared bus. *)

type t

type config = {
  clock_mhz : int;
  l1_bytes : int;
  l1_ways : int;
  l2_bytes : int;
  l2_ways : int;
  tlb_entries : int;
  line_bytes : int;
}

val default_config : config

val create :
  ?config:config ->
  aspace:Exochi_memory.Address_space.t ->
  bus:Exochi_memory.Bus.t ->
  unit ->
  t

val aspace : t -> Exochi_memory.Address_space.t
val clock : t -> Exochi_util.Timebase.clock
val l1 : t -> Exochi_memory.Cache.t
val l2 : t -> Exochi_memory.Cache.t

(** {1 Time} *)

(** Current local time in picoseconds. *)
val now_ps : t -> int

(** Move local time forward (used when the CPU waits on an event). *)
val advance_to_ps : t -> int -> unit

(** Charge [ps] of busy work (runtime services, proxy handlers). *)
val add_time_ps : t -> int -> unit

(** Charge deferred overhead (e.g. servicing user-level interrupts while
    the CPU is busy elsewhere); it is folded into [now_ps] before the next
    instruction executes. *)
val add_overhead_ps : t -> int -> unit

(** {1 Register access (for intrinsics, debugger, tests)} *)

val get_reg : t -> Exochi_isa.Via32_ast.reg -> int32
val set_reg : t -> Exochi_isa.Via32_ast.reg -> int32 -> unit
val get_xmm_lane : t -> xmm:int -> lane:int -> int32
val set_xmm_lane : t -> xmm:int -> lane:int -> int32 -> unit

(** {1 Cache maintenance} *)

(** Flush both data caches, paying the write-back cost through the bus;
    returns the number of dirty bytes written back. *)
val flush_caches : t -> int

(** Flush a virtual address range (CLFLUSH loop). *)
val flush_range : t -> vaddr:int -> len:int -> int

(** {1 Program execution} *)

(** A program decoded for execution: registers resolved to indices,
    data symbols folded into displacements, call targets resolved. *)
type code

(** A loaded program: code plus the data-symbol binding produced by the
    loader, and the decoded form [run] executes. *)
type loaded = {
  prog : Exochi_isa.Via32_ast.program;
  sym_addrs : (string * int) list;
  code : code;
}

(** [load_program prog ~symbols] binds data symbols and decodes [prog]
    once. Raises [Unbound_symbol] for a symbol [symbols] lacks. *)
val load_program :
  Exochi_isa.Via32_ast.program -> symbols:(string * int) list -> loaded

exception Unbound_symbol of string
exception Unknown_intrinsic of string

(** Why [run] returned. *)
type stop_reason =
  | Halted (* executed hlt *)
  | Ret_to_host (* ret with an empty call stack *)
  | Fuel_exhausted
  | Paused of int (* on_instr returned `Pause; carries the pc *)

(** The call stack survives across [run] calls, so a debugger can resume
    a [Paused] machine by calling [run ~entry:pc] again. *)
val call_stack : t -> int list

(** [run t loaded ~entry ~intrinsics] executes from instruction index
    [entry] until [hlt] or a top-level [ret]. [intrinsics name t] is
    called for [call] instructions that target runtime intrinsics; it may
    read and modify machine state and charge time. [fuel] bounds the
    instruction count (default: unlimited). [poll] is invoked before each
    instruction — the user-level-interrupt hook. *)
val run :
  ?fuel:int ->
  ?poll:(t -> unit) ->
  ?on_instr:(t -> pc:int -> [ `Continue | `Pause ]) ->
  t ->
  loaded ->
  entry:int ->
  intrinsics:(string -> t -> unit) ->
  stop_reason


(** {1 Counters} *)

val instructions_retired : t -> int

(** Data-TLB hit and miss counts (cleared by {!reset_counters}). *)
val tlb_hits : t -> int

val tlb_misses : t -> int
val reset_counters : t -> unit
