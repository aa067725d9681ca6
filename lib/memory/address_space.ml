open Exochi_util

exception Segfault of int

type region = { name : string; base : int; bytes : int }

type t = {
  mem : Phys_mem.t;
  pt : Page_table.t;
  mutable brk : int;
  mutable regions : region list; (* newest first *)
  mutable minor_faults : int;
}

(* User allocations start well above the null page and any loader region. *)
let base_va = 0x1000_0000
let top_va = 0xC000_0000

let create mem =
  { mem; pt = Page_table.create mem; brk = base_va; regions = []; minor_faults = 0 }

let phys_mem t = t.mem
let page_table t = t.pt

let alloc t ~name ~bytes ~align =
  if bytes <= 0 then invalid_arg "Address_space.alloc: bytes";
  if (not (Bits.is_pow2 align)) || align < 16 then
    invalid_arg "Address_space.alloc: align";
  let base = Bits.align_up t.brk align in
  if base + bytes > top_va then raise Phys_mem.Out_of_memory_frames;
  t.brk <- base + bytes;
  t.regions <- { name; base; bytes } :: t.regions;
  base

let regions t = List.rev_map (fun r -> (r.name, r.base, r.bytes)) t.regions

let in_some_region t vaddr =
  List.exists (fun r -> vaddr >= r.base && vaddr < r.base + r.bytes) t.regions

(* The OS page-fault handler: map a fresh frame at [vaddr]'s page with
   the given accessed/dirty bits; returns the frame. *)
let map_fresh t ~vaddr ~accessed ~dirty =
  if not (in_some_region t vaddr) then raise (Segfault vaddr);
  let frame = Phys_mem.alloc_frame t.mem in
  let pte =
    Pte.Ia32.make
      {
        Pte.Ia32.present = true;
        writable = true;
        user = true;
        write_through = false;
        cache_disable = false;
        accessed;
        dirty;
        frame;
      }
  in
  Page_table.map t.pt ~vpage:(vaddr lsr Phys_mem.page_shift) ~pte;
  t.minor_faults <- t.minor_faults + 1;
  frame

let fault_in t ~vaddr =
  let vpage = vaddr lsr Phys_mem.page_shift in
  match Page_table.walk t.pt ~vpage with
  | Page_table.Mapped _ -> `Already
  | No_table | Not_present ->
    ignore (map_fresh t ~vaddr ~accessed:false ~dirty:false);
    `Faulted

let page_mask = Phys_mem.page_size - 1

(* One walk per access: a mapped page gets its accessed (and dirty) bit
   set by the walk; an unmapped one is faulted in with those bits
   already set, the state a fault followed by a walk would leave. *)
let translate t ~vaddr ~write =
  let frame = Page_table.access t.pt ~vpage:(vaddr lsr Phys_mem.page_shift) ~write in
  let frame =
    if frame >= 0 then frame else map_fresh t ~vaddr ~accessed:true ~dirty:write
  in
  (frame lsl Phys_mem.page_shift) lor (vaddr land page_mask)

let lookup t ~vaddr =
  let frame = Page_table.access t.pt ~vpage:(vaddr lsr Phys_mem.page_shift) ~write:false in
  if frame < 0 then -1 else (frame lsl Phys_mem.page_shift) lor (vaddr land page_mask)

(* Accesses inside one page translate once and touch memory directly;
   a page-straddling access goes byte by byte, in ascending address
   order, so each page it touches is faulted in and marked in turn. *)
let fits vaddr n = (vaddr land page_mask) + n <= Phys_mem.page_size

let read_u8 t vaddr = Phys_mem.read_u8 t.mem (translate t ~vaddr ~write:false)

let write_u8 t vaddr v =
  Phys_mem.write_u8 t.mem (translate t ~vaddr ~write:true) v

let read_bytes_le t vaddr n =
  let v = ref 0 in
  for i = 0 to n - 1 do
    v := !v lor (read_u8 t (vaddr + i) lsl (8 * i))
  done;
  !v

let write_bytes_le t vaddr n v =
  for i = 0 to n - 1 do
    write_u8 t (vaddr + i) ((v lsr (8 * i)) land 0xff)
  done

let read_u16 t vaddr =
  if fits vaddr 2 then Phys_mem.read_u16 t.mem (translate t ~vaddr ~write:false)
  else read_bytes_le t vaddr 2

let read_i32 t vaddr =
  if fits vaddr 4 then Phys_mem.read_i32 t.mem (translate t ~vaddr ~write:false)
  else
    let v = read_bytes_le t vaddr 4 in
    (v lxor 0x8000_0000) - 0x8000_0000

let read_u32 t vaddr = Int32.of_int (read_i32 t vaddr)

let write_u16 t vaddr v =
  if fits vaddr 2 then
    Phys_mem.write_u16 t.mem (translate t ~vaddr ~write:true) v
  else write_bytes_le t vaddr 2 v

let write_i32 t vaddr v =
  if fits vaddr 4 then
    Phys_mem.write_i32 t.mem (translate t ~vaddr ~write:true) v
  else write_bytes_le t vaddr 4 v

let write_u32 t vaddr v = write_i32 t vaddr (Int32.to_int v)

let read_bytes t ~vaddr ~len =
  let buf = Bytes.create len in
  let rec go vaddr off len =
    if len > 0 then begin
      let chunk = min len (Phys_mem.page_size - (vaddr land page_mask)) in
      let pa = translate t ~vaddr ~write:false in
      Phys_mem.blit_to_bytes t.mem ~src:pa ~dst:buf ~dst_off:off ~len:chunk;
      go (vaddr + chunk) (off + chunk) (len - chunk)
    end
  in
  go vaddr 0 len;
  buf

let write_bytes t ~vaddr src =
  let len = Bytes.length src in
  let rec go vaddr off len =
    if len > 0 then begin
      let chunk = min len (Phys_mem.page_size - (vaddr land page_mask)) in
      let pa = translate t ~vaddr ~write:true in
      Phys_mem.blit_of_bytes t.mem ~src ~src_off:off ~dst:pa ~len:chunk;
      go (vaddr + chunk) (off + chunk) (len - chunk)
    end
  in
  go vaddr 0 len

let minor_faults t = t.minor_faults
