(** Lane-level arithmetic for the X3K ISA.

    Lanes are stored as native OCaml ints holding sign-extended 32-bit
    values (unboxed, unlike [int32 array]); every operation re-normalises
    through {!wrap32}. Data types narrower than 32 bits wrap/saturate per
    {!X3k_ast.dtype}. Float lanes hold IEEE-754 binary32 bit patterns.

    These semantics are shared between the EU simulator and the CEH proxy
    emulator on the CPU — by construction both agree on results. *)

open Exochi_isa

(** Sign-extend the low 32 bits. Every lane value is kept in this form. *)
val wrap32 : int -> int

(** Wrap a lane result to its data type's width (B: unsigned 8-bit;
    W: signed 16-bit; DW/F: 32-bit). *)
val wrap : X3k_ast.dtype -> int -> int

(** Saturate to the data type's representable range (the [sat]
    instruction): B to [0,255], W to [-32768,32767], DW/F identity. *)
val saturate : X3k_ast.dtype -> int -> int

val float_of_lane : int -> float
val lane_of_float : float -> int

(** Integer binary ops (already include per-dtype wrapping). *)
val add : X3k_ast.dtype -> int -> int -> int

val sub : X3k_ast.dtype -> int -> int -> int
val mul : X3k_ast.dtype -> int -> int -> int
val min_ : X3k_ast.dtype -> int -> int -> int
val max_ : X3k_ast.dtype -> int -> int -> int

(** Rounding average, unsigned per-dtype (media op). *)
val avg : X3k_ast.dtype -> int -> int -> int

val abs_ : X3k_ast.dtype -> int -> int
val shl : X3k_ast.dtype -> int -> int -> int
val shr : X3k_ast.dtype -> int -> int -> int
val sar : X3k_ast.dtype -> int -> int -> int
val and_ : int -> int -> int
val or_ : int -> int -> int
val xor_ : int -> int -> int
val not_ : X3k_ast.dtype -> int -> int

(** Comparison: unsigned for B, signed for W/DW, IEEE for F. *)
val compare_lanes : X3k_ast.dtype -> X3k_ast.cond -> int -> int -> bool

(** Float ops on bit patterns; results rounded to binary32. *)
val fadd : int -> int -> int

val fsub : int -> int -> int
val fmul : int -> int -> int
val fmin : int -> int -> int
val fmax : int -> int -> int
val fabs : int -> int

(** [fdiv_faults b] (division by zero) and [fsqrt_faults a] (negative
    input) are the cases the exo-sequencer cannot complete and escalates
    through CEH. *)
val fdiv_faults : int -> bool

val fsqrt_faults : int -> bool

(** IEEE-correct emulation used by the CEH proxy handler on the CPU:
    division by zero yields signed infinity (NaN for 0/0), square root of
    a negative value yields NaN. *)
val fdiv_ieee : int -> int -> int

val fsqrt_ieee : int -> int
val cvtif : int -> int
val cvtfi : int -> int

(** [dpadd_pairs a b] emulates the double-precision pair add on the IA32
    side: adjacent lane pairs (2p, 2p+1) hold the low/high words of a
    binary64 value. Used by both the CEH proxy handler and the
    whole-shred fallback emulator. *)
val dpadd_pairs : int array -> int array -> int array
