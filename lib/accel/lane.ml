open Exochi_isa.X3k_ast

let wrap32 v = (v land 0xFFFFFFFF) lxor 0x80000000 |> fun x -> x - 0x80000000

let wrap dtype v =
  match dtype with
  | B -> v land 0xFF
  | W -> ((v land 0xFFFF) lxor 0x8000) - 0x8000
  | DW | F -> wrap32 v

let saturate dtype v =
  match dtype with
  | B -> if v < 0 then 0 else if v > 255 then 255 else v
  | W -> if v < -32768 then -32768 else if v > 32767 then 32767 else v
  | DW | F -> v

let[@inline] float_of_lane v = Int32.float_of_bits (Int32.of_int v)
let[@inline] lane_of_float f = wrap32 (Int32.to_int (Int32.bits_of_float f))

let add d a b = wrap d (a + b)
let sub d a b = wrap d (a - b)
let mul d a b = wrap d (a * b)
let min_ d a b = wrap d (min a b)
let max_ d a b = wrap d (max a b)

(* unsigned view of a lane under its dtype, for avg and B compares *)
let unsigned d v =
  match d with
  | B -> v land 0xFF
  | W -> v land 0xFFFF
  | DW | F -> v land 0xFFFFFFFF

let avg d a b = wrap d ((unsigned d a + unsigned d b + 1) lsr 1)
let abs_ d v = wrap d (abs v)
let shl d a b = wrap d (a lsl (b land 31))
let shr d a b = wrap d (unsigned DW a lsr (b land 31))
let sar d a b = wrap d (a asr (b land 31))
let and_ a b = wrap32 (a land b)
let or_ a b = wrap32 (a lor b)
let xor_ a b = wrap32 (a lxor b)
let not_ d v = wrap d (lnot v)

let compare_lanes d cond a b =
  let c =
    match d with
    | B -> compare (unsigned B a) (unsigned B b)
    | W | DW -> compare a b
    | F -> Float.compare (float_of_lane a) (float_of_lane b)
  in
  match cond with
  | Eq -> c = 0
  | Ne -> c <> 0
  | Lt -> c < 0
  | Le -> c <= 0
  | Gt -> c > 0
  | Ge -> c >= 0

(* Each float op is written out so its temporaries stay unboxed. *)
let fadd a b = lane_of_float (float_of_lane a +. float_of_lane b)
let fsub a b = lane_of_float (float_of_lane a -. float_of_lane b)
let fmul a b = lane_of_float (float_of_lane a *. float_of_lane b)
let fmin a b = lane_of_float (Float.min (float_of_lane a) (float_of_lane b))
let fmax a b = lane_of_float (Float.max (float_of_lane a) (float_of_lane b))
let fabs v = lane_of_float (Float.abs (float_of_lane v))
let fdiv_ieee a b = lane_of_float (float_of_lane a /. float_of_lane b)

let fdiv_faults b = float_of_lane b = 0.0
let fsqrt_faults a = float_of_lane a < 0.0
let fsqrt_ieee a = lane_of_float (sqrt (float_of_lane a))
let cvtif v = lane_of_float (float_of_int v)

let cvtfi v =
  let f = float_of_lane v in
  if Float.is_nan f then 0
  else
    let r = Float.round f in
    if r >= 2147483647.0 then 0x7FFFFFFF
    else if r <= -2147483648.0 then wrap32 0x80000000
    else wrap32 (int_of_float r)

(* Double-precision pair add (the [dpadd] instruction the X3K cannot
   execute natively): adjacent lane pairs (2p, 2p+1) hold the low/high
   32-bit words of an IEEE binary64 value. Shared by the CEH proxy
   handler and the whole-shred IA32 fallback emulator. *)
let dpadd_pairs a b =
  let lanes = Array.length a in
  let res = Array.make lanes 0 in
  let of_pair lo hi =
    Int64.float_of_bits
      (Int64.logor
         (Int64.shift_left (Int64.of_int (hi land 0xFFFFFFFF)) 32)
         (Int64.of_int (lo land 0xFFFFFFFF)))
  in
  for p = 0 to (lanes / 2) - 1 do
    let lo = 2 * p and hi = (2 * p) + 1 in
    let da = of_pair a.(lo) a.(hi) in
    let db = of_pair b.(lo) b.(hi) in
    let bits = Int64.bits_of_float (da +. db) in
    res.(lo) <- wrap32 (Int64.to_int (Int64.logand bits 0xFFFFFFFFL));
    res.(hi) <- wrap32 (Int64.to_int (Int64.shift_right_logical bits 32))
  done;
  (* an odd trailing lane has no partner: pass it through unchanged *)
  if lanes land 1 = 1 then res.(lanes - 1) <- a.(lanes - 1);
  res
