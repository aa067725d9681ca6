module Ia32 = struct
  type t = int32

  type attrs = {
    present : bool;
    writable : bool;
    user : bool;
    write_through : bool;
    cache_disable : bool;
    accessed : bool;
    dirty : bool;
    frame : int;
  }

  let absent = 0l

  let bit b v pos = if b then Int32.logor v (Int32.shift_left 1l pos) else v

  let make a =
    if a.frame < 0 || a.frame > 0xFFFFF then invalid_arg "Pte.Ia32.make: frame";
    let v = Int32.shift_left (Int32.of_int a.frame) 12 in
    let v = bit a.present v 0 in
    let v = bit a.writable v 1 in
    let v = bit a.user v 2 in
    let v = bit a.write_through v 3 in
    let v = bit a.cache_disable v 4 in
    let v = bit a.accessed v 5 in
    let v = bit a.dirty v 6 in
    v

  let test v pos = Int32.logand (Int32.shift_right_logical v pos) 1l = 1l

  let decode v =
    {
      present = test v 0;
      writable = test v 1;
      user = test v 2;
      write_through = test v 3;
      cache_disable = test v 4;
      accessed = test v 5;
      dirty = test v 6;
      frame = Int32.to_int (Int32.shift_right_logical v 12) land 0xFFFFF;
    }

  let present v = test v 0
  let frame v = Int32.to_int (Int32.shift_right_logical v 12) land 0xFFFFF
  let with_accessed v = Int32.logor v 0x20l
  let with_dirty v = Int32.logor v 0x40l

  let pp fmt v =
    let a = decode v in
    Format.fprintf fmt "ia32-pte{frame=%#x%s%s%s%s%s%s%s}" a.frame
      (if a.present then " P" else " !P")
      (if a.writable then " RW" else "")
      (if a.user then " US" else "")
      (if a.write_through then " PWT" else "")
      (if a.cache_disable then " PCD" else "")
      (if a.accessed then " A" else "")
      (if a.dirty then " D" else "")
end

module X3k = struct
  type t = int64
  type cache_type = Uncached | Write_combining | Write_back
  type tiling = Linear | Tiled_x | Tiled_y

  type attrs = {
    valid : bool;
    cache : cache_type;
    tiling : tiling;
    write_enable : bool;
    frame : int;
  }

  let absent = 0L

  let cache_code = function
    | Uncached -> 0
    | Write_combining -> 1
    | Write_back -> 2

  let cache_of_code = function
    | 0 -> Uncached
    | 1 -> Write_combining
    | 2 -> Write_back
    | c -> invalid_arg (Printf.sprintf "Pte.X3k: cache code %d" c)

  let tiling_code = function Linear -> 0 | Tiled_x -> 1 | Tiled_y -> 2

  let tiling_of_code = function
    | 0 -> Linear
    | 1 -> Tiled_x
    | 2 -> Tiled_y
    | c -> invalid_arg (Printf.sprintf "Pte.X3k: tiling code %d" c)

  let make a =
    if a.frame < 0 || a.frame > 0xFFFFFFF then invalid_arg "Pte.X3k.make: frame";
    let open Exochi_util.Bits in
    let v = 0L in
    let v = insert64 v ~hi:0 ~lo:0 (if a.valid then 1L else 0L) in
    let v = insert64 v ~hi:2 ~lo:1 (Int64.of_int (cache_code a.cache)) in
    let v = insert64 v ~hi:4 ~lo:3 (Int64.of_int (tiling_code a.tiling)) in
    let v = insert64 v ~hi:5 ~lo:5 (if a.write_enable then 1L else 0L) in
    insert64 v ~hi:39 ~lo:12 (Int64.of_int a.frame)

  let decode v =
    let open Exochi_util.Bits in
    {
      valid = extract64 v ~hi:0 ~lo:0 = 1L;
      cache = cache_of_code (Int64.to_int (extract64 v ~hi:2 ~lo:1));
      tiling = tiling_of_code (Int64.to_int (extract64 v ~hi:4 ~lo:3));
      write_enable = extract64 v ~hi:5 ~lo:5 = 1L;
      frame = Int64.to_int (extract64 v ~hi:39 ~lo:12);
    }

  let valid v = Int64.logand v 1L = 1L
  (* bits 39:12, written out so no int64 is boxed *)
  let frame v = Int64.to_int (Int64.shift_right_logical v 12) land 0xFFF_FFFF

  let pp fmt v =
    let a = decode v in
    Format.fprintf fmt "x3k-pte{frame=%#x%s cache=%s tiling=%s%s}" a.frame
      (if a.valid then " V" else " !V")
      (match a.cache with
      | Uncached -> "UC"
      | Write_combining -> "WC"
      | Write_back -> "WB")
      (match a.tiling with Linear -> "lin" | Tiled_x -> "X" | Tiled_y -> "Y")
      (if a.write_enable then " WE" else "")
end

let transcode ia32 ~tiling =
  if not (Ia32.present ia32) then X3k.absent
  else begin
    let a = Ia32.decode ia32 in
    let cache =
      if a.cache_disable then X3k.Uncached
      else if a.write_through then X3k.Write_combining
      else X3k.Write_back
    in
    X3k.make
      {
        X3k.valid = true;
        cache;
        tiling;
        write_enable = a.writable;
        frame = a.frame;
      }
  end

let transcode_back x3k =
  if not (X3k.valid x3k) then Ia32.absent
  else begin
    let a = X3k.decode x3k in
    if a.frame > 0xFFFFF then
      invalid_arg "Pte.transcode_back: frame exceeds IA32 range";
    Ia32.make
      {
        Ia32.present = true;
        writable = a.write_enable;
        user = true;
        write_through = (a.cache = X3k.Write_combining);
        cache_disable = (a.cache = X3k.Uncached);
        accessed = false;
        dirty = false;
        frame = a.frame;
      }
  end
