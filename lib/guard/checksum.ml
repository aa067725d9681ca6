(* 64-bit FNV-1a. Chosen for the guard layer because it is trivially
   deterministic across platforms, incremental (surfaces hash one after
   another into the same accumulator) and fast enough to run after every
   batch without touching the simulated clock.

   Byte strings are hashed by [add_sub], one loop over a byte slice
   whose accumulator is a local mutable the native compiler keeps
   unboxed: hashing allocates nothing per byte. *)

let offset_basis = 0xcbf29ce484222325L
let prime = 0x100000001b3L

(* One FNV-1a round. Inlined, so the loops below keep [h] unboxed. *)
let[@inline] step h byte =
  Int64.mul (Int64.logxor h (Int64.of_int byte)) prime

let add_sub acc b off len =
  if off < 0 || len < 0 || off > Bytes.length b - len then
    invalid_arg "Checksum.add_sub";
  let h = ref acc in
  for i = off to off + len - 1 do
    h := step !h (Char.code (Bytes.unsafe_get b i))
  done;
  !h

let add_bytes acc b = add_sub acc b 0 (Bytes.length b)

(* [add_sub] only reads the slice, so viewing the string as bytes is
   safe. *)
let add_string acc s =
  add_sub acc (Bytes.unsafe_of_string s) 0 (String.length s)

(* Mix a 64-bit value in little-endian byte order, so checksums over
   structured records are byte-layout-faithful. *)
let add_int64 acc v =
  let h = ref acc in
  for i = 0 to 7 do
    let byte = Int64.to_int (Int64.shift_right_logical v (i * 8)) in
    h := step !h (byte land 0xff)
  done;
  !h

let of_string s = add_string offset_basis s
let of_bytes b = add_bytes offset_basis b
let to_hex v = Printf.sprintf "%016Lx" v
