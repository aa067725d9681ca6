(* Log-bucketed streaming histogram (HDR-style): O(1) record, O(1)
   memory, deterministic quantiles with a bounded relative error, and
   lossless merge.

   Bucketing: a positive value [v] is decomposed with [Float.frexp] into
   [m * 2^e] (m in [0.5,1)) and lands in one of [sub] linear sub-buckets
   of its octave, so the relative width of every bucket is at most
   [1/sub] (3.125% at sub = 32). frexp is exact — no logarithm, no libm
   rounding differences — so the same value stream always produces the
   same buckets on any platform, and two histograms built from permuted
   streams are identical structure-for-structure. Quantiles use the
   nearest-rank rule over the cumulative bucket counts and report the
   bucket midpoint clamped into the exact observed [min, max]. *)

let sub = 32
let emin = -16 (* smallest tracked octave: values below 2^-17 clamp *)
let emax = 63 (* largest: values at or above 2^63 clamp *)
let octaves = emax - emin + 1
let nbuckets = octaves * sub

type t = {
  mutable count : int;
  mutable zeros : int; (* values <= 0, reported as 0 *)
  mutable sum : float;
  mutable min_v : float;
  mutable max_v : float;
  buckets : int array;
}

let create () =
  {
    count = 0;
    zeros = 0;
    sum = 0.0;
    min_v = infinity;
    max_v = neg_infinity;
    buckets = Array.make nbuckets 0;
  }

let index_of v =
  (* v > 0 *)
  let m, e = Float.frexp v in
  if e < emin then 0
  else if e > emax then nbuckets - 1
  else begin
    let s = int_of_float ((m -. 0.5) *. 2.0 *. float_of_int sub) in
    let s = if s >= sub then sub - 1 else s in
    ((e - emin) * sub) + s
  end

(* Bucket [idx] covers [2^(e-1) * (1 + s/sub), 2^(e-1) * (1 + (s+1)/sub)). *)
let bucket_lo idx =
  let e = emin + (idx / sub) and s = idx mod sub in
  Float.ldexp (1.0 +. (float_of_int s /. float_of_int sub)) (e - 1)

let bucket_hi idx =
  let e = emin + (idx / sub) and s = idx mod sub in
  Float.ldexp (1.0 +. (float_of_int (s + 1) /. float_of_int sub)) (e - 1)

let bucket_mid idx = 0.5 *. (bucket_lo idx +. bucket_hi idx)

let record t v =
  t.count <- t.count + 1;
  t.sum <- t.sum +. v;
  if v < t.min_v then t.min_v <- v;
  if v > t.max_v then t.max_v <- v;
  if v <= 0.0 then t.zeros <- t.zeros + 1
  else begin
    let i = index_of v in
    t.buckets.(i) <- t.buckets.(i) + 1
  end

let count t = t.count
let sum t = t.sum
let mean t = if t.count = 0 then 0.0 else t.sum /. float_of_int t.count
let min_value t = if t.count = 0 then 0.0 else t.min_v
let max_value t = if t.count = 0 then 0.0 else t.max_v

(* Absolute width of the bucket a value would land in — the error budget
   the quantile tests hold the estimates to. *)
let width_at v = if v <= 0.0 then 0.0 else bucket_hi (index_of v) -. bucket_lo (index_of v)

let quantile t p =
  if p < 0.0 || p > 100.0 then invalid_arg "Hist.quantile: p out of range";
  if t.count = 0 then 0.0
  else begin
    (* nearest rank on the same 0-based scale Stats.percentile
       interpolates over, so the two agree to within a bucket *)
    let rank =
      1 + int_of_float ((p /. 100.0 *. float_of_int (t.count - 1)) +. 0.5)
    in
    let rank = if rank > t.count then t.count else rank in
    if rank <= t.zeros then Float.max 0.0 t.min_v
    else begin
      let rec scan i acc =
        if i >= nbuckets then t.max_v
        else begin
          let acc = acc + t.buckets.(i) in
          if acc >= rank then begin
            let v = bucket_mid i in
            if v < t.min_v then t.min_v
            else if v > t.max_v then t.max_v
            else v
          end
          else scan (i + 1) acc
        end
      in
      scan 0 t.zeros
    end
  end

let merge a b =
  let t = create () in
  t.count <- a.count + b.count;
  t.zeros <- a.zeros + b.zeros;
  t.sum <- a.sum +. b.sum;
  t.min_v <- Float.min a.min_v b.min_v;
  t.max_v <- Float.max a.max_v b.max_v;
  Array.iteri (fun i n -> t.buckets.(i) <- n + b.buckets.(i)) a.buckets;
  t

(* Occupied buckets, (midpoint, count), ascending — introspection and
   structural equality in tests. *)
let nonzero t =
  let acc = ref [] in
  for i = nbuckets - 1 downto 0 do
    if t.buckets.(i) > 0 then acc := (bucket_mid i, t.buckets.(i)) :: !acc
  done;
  if t.zeros > 0 then (0.0, t.zeros) :: !acc else !acc
