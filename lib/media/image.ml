open Exochi_util

type t = { width : int; height : int; data : int array }

let create ~width ~height =
  if width <= 0 || height <= 0 then invalid_arg "Image.create";
  { width; height; data = Array.make (width * height) 0 }

(* [f] is called in row-major order: generators draw from a PRNG. *)
let init ~width ~height f =
  if width <= 0 || height <= 0 then invalid_arg "Image.init";
  let data = Array.make (width * height) 0 in
  for y = 0 to height - 1 do
    for x = 0 to width - 1 do
      data.((y * width) + x) <- f ~x ~y
    done
  done;
  { width; height; data }

let get t ~x ~y =
  if x < 0 || x >= t.width || y < 0 || y >= t.height then
    invalid_arg (Printf.sprintf "Image.get (%d,%d) of %dx%d" x y t.width t.height);
  t.data.((y * t.width) + x)

let set t ~x ~y v =
  if x < 0 || x >= t.width || y < 0 || y >= t.height then
    invalid_arg "Image.set";
  t.data.((y * t.width) + x) <- v

let clamp lo hi v = if v < lo then lo else if v > hi then hi else v

let get_clamped t ~x ~y =
  t.data.((clamp 0 (t.height - 1) y * t.width) + clamp 0 (t.width - 1) x)

let pad t ~margin =
  if margin < 0 then invalid_arg "Image.pad";
  init ~width:(t.width + (2 * margin)) ~height:(t.height + (2 * margin))
    (fun ~x ~y -> get_clamped t ~x:(x - margin) ~y:(y - margin))

let crop t ~x ~y ~width ~height =
  if x < 0 || y < 0 || x + width > t.width || y + height > t.height then
    invalid_arg "Image.crop";
  init ~width ~height (fun ~x:cx ~y:cy -> get t ~x:(x + cx) ~y:(y + cy))

type content = Gradient | Noise | Natural | Checker of int

let synthetic prng ~width ~height content =
  match content with
  | Gradient ->
    init ~width ~height (fun ~x ~y -> ((x * 3) + (y * 2)) mod 256)
  | Noise -> init ~width ~height (fun ~x:_ ~y:_ -> Prng.byte prng)
  | Checker tile ->
    let tile = max 1 tile in
    init ~width ~height (fun ~x ~y ->
        if (x / tile) + (y / tile) land 1 = 1 then 220 else 35)
  | Natural ->
    (* low-frequency field + a few hard edges + texture + light noise *)
    let phase = Prng.float prng *. 6.28 in
    let edge_x = width / 3 and edge_y = (2 * height) / 3 in
    init ~width ~height (fun ~x ~y ->
        let fx = float_of_int x and fy = float_of_int y in
        let base =
          128.0
          +. (60.0 *. sin ((fx /. 37.0) +. phase))
          +. (40.0 *. cos (fy /. 23.0))
        in
        let edge = if x > edge_x && y < edge_y then 30.0 else -20.0 in
        let texture =
          if (x lxor y) land 7 = 0 then 12.0 else 0.0
        in
        let noise = float_of_int (Prng.int prng 9) -. 4.0 in
        clamp 0 255 (int_of_float (base +. edge +. texture +. noise)))

let synthetic_video prng ~width ~height ~frames content =
  if frames <= 0 then invalid_arg "Image.synthetic_video";
  let base =
    synthetic prng ~width:(width + (2 * frames)) ~height:(height + frames)
      content
  in
  init ~width ~height:(frames * height) (fun ~x ~y ->
      let f = y / height and py = y mod height in
      (* pan two pixels right and one down per frame *)
      get base ~x:(x + (2 * f)) ~y:(py + f))

let equal a b = a.width = b.width && a.height = b.height && a.data = b.data

let max_abs_diff a b =
  if a.width <> b.width || a.height <> b.height then
    invalid_arg "Image.max_abs_diff: shape mismatch";
  let m = ref 0 in
  Array.iteri (fun i v -> m := max !m (abs (v - b.data.(i)))) a.data;
  !m

let psnr a b =
  if a.width <> b.width || a.height <> b.height then
    invalid_arg "Image.psnr: shape mismatch";
  let se = ref 0.0 in
  Array.iteri
    (fun i v ->
      let d = float_of_int (v - b.data.(i)) in
      se := !se +. (d *. d))
    a.data;
  if !se = 0.0 then infinity
  else begin
    let mse = !se /. float_of_int (Array.length a.data) in
    10.0 *. log10 (255.0 *. 255.0 /. mse)
  end

open Exochi_memory

(* A linear surface's rows are contiguous, so each row moves as one
   block: that touches the same pages, in the same ascending order, as
   moving its samples one by one, which tiled surfaces still do. *)
let store aspace t ~surface =
  if t.width <> surface.Surface.width || t.height <> surface.Surface.height
  then invalid_arg "Image.store: shape mismatch with surface";
  let bpp = surface.Surface.bpp in
  match surface.Surface.tiling with
  | Surface.Linear ->
    let row = Bytes.create (t.width * bpp) in
    for y = 0 to t.height - 1 do
      for x = 0 to t.width - 1 do
        let v = t.data.((y * t.width) + x) in
        match bpp with
        | 1 -> Bytes.set_uint8 row x (v land 0xff)
        | 2 -> Bytes.set_uint16_le row (2 * x) (v land 0xffff)
        | _ -> Bytes.set_int32_le row (4 * x) (Int32.of_int v)
      done;
      Address_space.write_bytes aspace ~vaddr:(Surface.row_addr surface ~y) row
    done
  | Surface.Tiled_x | Surface.Tiled_y ->
    for y = 0 to t.height - 1 do
      for x = 0 to t.width - 1 do
        let va = Surface.element_addr surface ~x ~y in
        let v = t.data.((y * t.width) + x) in
        match bpp with
        | 1 -> Address_space.write_u8 aspace va (v land 0xff)
        | 2 -> Address_space.write_u16 aspace va (v land 0xffff)
        | _ -> Address_space.write_u32 aspace va (Int32.of_int v)
      done
    done

let load aspace ~surface =
  let width = surface.Surface.width and height = surface.Surface.height in
  let bpp = surface.Surface.bpp in
  match surface.Surface.tiling with
  | Surface.Linear ->
    let data = Array.make (width * height) 0 in
    for y = 0 to height - 1 do
      let row =
        Address_space.read_bytes aspace ~vaddr:(Surface.row_addr surface ~y)
          ~len:(width * bpp)
      in
      for x = 0 to width - 1 do
        data.((y * width) + x) <-
          (match bpp with
          | 1 -> Bytes.get_uint8 row x
          | 2 -> Bytes.get_int16_le row (2 * x)
          | _ -> Int32.to_int (Bytes.get_int32_le row (4 * x)))
      done
    done;
    { width; height; data }
  | Surface.Tiled_x | Surface.Tiled_y ->
    init ~width ~height (fun ~x ~y ->
        let va = Surface.element_addr surface ~x ~y in
        match bpp with
        | 1 -> Address_space.read_u8 aspace va
        | 2 -> Bits.sign_extend (Address_space.read_u16 aspace va) ~bits:16
        | _ -> Int32.to_int (Address_space.read_u32 aspace va))
