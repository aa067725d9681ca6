let page_size = 4096
let page_shift = 12
let page_mask = page_size - 1

exception Out_of_memory_frames

(* Frames that were never written share one all-zero page; a write
   gives the frame its own backing store first, so sparse address spaces
   stay cheap. [zero_page] itself is never written. *)
let zero_page = Bytes.make page_size '\000'

type t = {
  total_frames : int;
  frames : bytes array; (* frame number -> backing store or [zero_page] *)
  mutable next_frame : int; (* bump allocator *)
  mutable free_list : int list; (* returned frames *)
  mutable allocated : int;
}

let create ~frames =
  if frames <= 0 then invalid_arg "Phys_mem.create";
  {
    total_frames = frames;
    frames = Array.make frames zero_page;
    next_frame = 0;
    free_list = [];
    allocated = 0;
  }

let total_frames t = t.total_frames
let frames_allocated t = t.allocated

let alloc_frame t =
  match t.free_list with
  | f :: rest ->
    t.free_list <- rest;
    t.allocated <- t.allocated + 1;
    t.frames.(f) <- zero_page;
    f
  | [] ->
    if t.next_frame >= t.total_frames then raise Out_of_memory_frames;
    let f = t.next_frame in
    t.next_frame <- t.next_frame + 1;
    t.allocated <- t.allocated + 1;
    f

let free_frame t f =
  if f < 0 || f >= t.next_frame then invalid_arg "Phys_mem.free_frame";
  if List.mem f t.free_list then invalid_arg "Phys_mem.free_frame: double free";
  t.frames.(f) <- zero_page;
  t.free_list <- f :: t.free_list;
  t.allocated <- t.allocated - 1

(* Backing store for reading: never allocates. Frames beyond the pool
   can never be allocated, so they read as zero too. *)
let source t addr =
  let f = addr lsr page_shift in
  if f < t.total_frames then t.frames.(f) else zero_page

(* Backing store for writing, materialised on first write. *)
let sink t addr =
  let f = addr lsr page_shift in
  if f >= t.total_frames then
    invalid_arg "Phys_mem: write beyond physical memory";
  let b = t.frames.(f) in
  if b != zero_page then b
  else begin
    let b = Bytes.make page_size '\000' in
    t.frames.(f) <- b;
    b
  end

let check_span addr size =
  if (addr land page_mask) + size > page_size then
    invalid_arg "Phys_mem: access straddles a frame boundary"

let read_u8 t addr = Bytes.get_uint8 (source t addr) (addr land page_mask)

let read_u16 t addr =
  check_span addr 2;
  Bytes.get_uint16_le (source t addr) (addr land page_mask)

let read_i32 t addr =
  check_span addr 4;
  Int32.to_int (Bytes.get_int32_le (source t addr) (addr land page_mask))

let read_u32 t addr =
  check_span addr 4;
  Bytes.get_int32_le (source t addr) (addr land page_mask)

let read_u64 t addr =
  check_span addr 8;
  Bytes.get_int64_le (source t addr) (addr land page_mask)

let write_u8 t addr v = Bytes.set_uint8 (sink t addr) (addr land page_mask) (v land 0xff)

let write_u16 t addr v =
  check_span addr 2;
  Bytes.set_uint16_le (sink t addr) (addr land page_mask) (v land 0xffff)

let write_i32 t addr v =
  check_span addr 4;
  Bytes.set_int32_le (sink t addr) (addr land page_mask) (Int32.of_int v)

let write_u32 t addr v =
  check_span addr 4;
  Bytes.set_int32_le (sink t addr) (addr land page_mask) v

let write_u64 t addr v =
  check_span addr 8;
  Bytes.set_int64_le (sink t addr) (addr land page_mask) v

let blit_to_bytes t ~src ~dst ~dst_off ~len =
  let src = ref src and dst_off = ref dst_off and len = ref len in
  while !len > 0 do
    let off = !src land page_mask in
    let chunk = min !len (page_size - off) in
    Bytes.blit (source t !src) off dst !dst_off chunk;
    src := !src + chunk;
    dst_off := !dst_off + chunk;
    len := !len - chunk
  done

let blit_of_bytes t ~src ~src_off ~dst ~len =
  let src_off = ref src_off and dst = ref dst and len = ref len in
  while !len > 0 do
    let off = !dst land page_mask in
    let chunk = min !len (page_size - off) in
    Bytes.blit src !src_off (sink t !dst) off chunk;
    src_off := !src_off + chunk;
    dst := !dst + chunk;
    len := !len - chunk
  done

let copy t ~src ~dst ~len =
  let buf = Bytes.create len in
  blit_to_bytes t ~src ~dst:buf ~dst_off:0 ~len;
  blit_of_bytes t ~src:buf ~src_off:0 ~dst ~len
