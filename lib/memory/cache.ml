open Exochi_util

(* Line state lives in flat arrays indexed by [set * ways + way], so a
   lookup scans one contiguous run of tags. An invalid line has tag -1:
   addresses are non-negative, so every real tag is too. *)
type t = {
  name : string;
  line_bytes : int;
  line_shift : int; (* log2 line_bytes *)
  set_shift : int; (* log2 sets *)
  sets : int;
  ways : int;
  tags : int array;
  dirty : bool array;
  lru : int array; (* tick of the last touch *)
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable writebacks : int;
}

let create ~name ~size_bytes ~line_bytes ~ways =
  if not (Bits.is_pow2 size_bytes && Bits.is_pow2 line_bytes && Bits.is_pow2 ways)
  then invalid_arg "Cache.create: sizes must be powers of two";
  let sets = size_bytes / (line_bytes * ways) in
  if sets < 1 then invalid_arg "Cache.create: size too small";
  let n = sets * ways in
  {
    name;
    line_bytes;
    line_shift = Bits.log2 line_bytes;
    set_shift = Bits.log2 sets;
    sets;
    ways;
    tags = Array.make n (-1);
    dirty = Array.make n false;
    lru = Array.make n 0;
    tick = 0;
    hits = 0;
    misses = 0;
    writebacks = 0;
  }

let name t = t.name
let line_bytes t = t.line_bytes

let hit = -1
let miss = -2

(* Address of the line in slot [i]. *)
let line_addr t i = ((t.tags.(i) lsl t.set_shift) lor (i / t.ways)) lsl t.line_shift

(* Slot of the valid line holding [addr], or -1. Sizes are powers of two
   and addresses non-negative, so shifts and masks split the address. *)
let find t addr =
  let line_no = addr lsr t.line_shift in
  let tag = line_no lsr t.set_shift in
  let base = (line_no land (t.sets - 1)) * t.ways in
  let i = ref base and last = base + t.ways in
  while !i < last && t.tags.(!i) <> tag do
    incr i
  done;
  if !i < last then !i else -1

(* First invalid slot of the set starting at [base], else the least
   recently used one. *)
let victim t base =
  let best = ref base and i = ref base and last = base + t.ways in
  while !i < last do
    if t.tags.(!i) < 0 then begin
      best := !i;
      i := last
    end
    else begin
      if t.lru.(!i) < t.lru.(!best) then best := !i;
      incr i
    end
  done;
  !best

let access t ~addr ~write =
  t.tick <- t.tick + 1;
  let i = find t addr in
  if i >= 0 then begin
    t.lru.(i) <- t.tick;
    if write then t.dirty.(i) <- true;
    t.hits <- t.hits + 1;
    hit
  end
  else begin
    t.misses <- t.misses + 1;
    let line_no = addr lsr t.line_shift in
    let v = victim t ((line_no land (t.sets - 1)) * t.ways) in
    let result =
      if t.tags.(v) >= 0 && t.dirty.(v) then begin
        t.writebacks <- t.writebacks + 1;
        line_addr t v
      end
      else miss
    in
    t.tags.(v) <- line_no lsr t.set_shift;
    t.dirty.(v) <- write;
    t.lru.(v) <- t.tick;
    result
  end

let access_lines t ~addr ~len ~write results =
  let first = addr lsr t.line_shift and last = (addr + len - 1) lsr t.line_shift in
  for line = last downto first do
    results.(line - first) <- access t ~addr:(line lsl t.line_shift) ~write
  done;
  last - first + 1

(* Invalidate slot [i]; true if it was dirty (and so written back). *)
let clean t i =
  let was_dirty = t.dirty.(i) in
  if was_dirty then t.writebacks <- t.writebacks + 1;
  t.tags.(i) <- -1;
  t.dirty.(i) <- false;
  was_dirty

let flush_all t =
  let dirty = ref [] in
  for i = Array.length t.tags - 1 downto 0 do
    if t.tags.(i) >= 0 then begin
      let la = line_addr t i in
      if clean t i then dirty := la :: !dirty
    end
  done;
  !dirty

let flush_range t ~addr ~len =
  if len <= 0 then []
  else begin
    let dirty = ref [] in
    let first = addr lsr t.line_shift and last = (addr + len - 1) lsr t.line_shift in
    for line = last downto first do
      let la = line lsl t.line_shift in
      let i = find t la in
      if i >= 0 && clean t i then dirty := la :: !dirty
    done;
    !dirty
  end

let snoop t ~line_addr:la =
  let i = find t la in
  if i < 0 then `Absent else if clean t i then `Dirty else `Clean

let probe t ~line_addr:la =
  let i = find t la in
  if i < 0 then `Absent else if t.dirty.(i) then `Dirty else `Clean

let count t pred =
  let n = ref 0 in
  for i = 0 to Array.length t.tags - 1 do
    if t.tags.(i) >= 0 && pred i then incr n
  done;
  !n

let dirty_line_count t = count t (fun i -> t.dirty.(i))
let valid_line_count t = count t (fun _ -> true)
let hits t = t.hits
let misses t = t.misses
let writebacks t = t.writebacks

let reset_stats t =
  t.hits <- 0;
  t.misses <- 0;
  t.writebacks <- 0
