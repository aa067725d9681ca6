open Exochi_util
open Exochi_memory
open Exochi_isa
open Via32_ast

type config = {
  clock_mhz : int;
  l1_bytes : int;
  l1_ways : int;
  l2_bytes : int;
  l2_ways : int;
  tlb_entries : int;
  line_bytes : int;
}

let default_config =
  {
    clock_mhz = 2400;
    l1_bytes = 32 * 1024;
    l1_ways = 8;
    l2_bytes = 4 * 1024 * 1024;
    l2_ways = 16;
    tlb_entries = 64;
    line_bytes = 64;
  }

(* A data-TLB entry: the frame, and which of the page's accessed/dirty
   bits this machine already knows to be set (0 none, 1 accessed, 2
   accessed and dirty). The bits are sticky, so what is known stays
   true; a direct access that needs more goes through one page-table
   walk first. *)
type tlb_entry = { frame : int; mutable marked : int }

let no_entry = { frame = -1; marked = 0 }

(* Largest single timed access: one 16-byte SSE load or store. *)
let max_access_bytes = 16

type t = {
  aspace : Address_space.t;
  mem : Phys_mem.t;
  bus : Bus.t;
  clock : Timebase.clock;
  l1 : Cache.t;
  l2 : Cache.t;
  tlb : tlb_entry Tlb.t;
  mutable cur : tlb_entry; (* entry of the latest translation *)
  line_shift : int; (* log2 of the cache line size *)
  l1_results : int array; (* per-line L1 outcomes of one access *)
  src4 : int array; (* second source of an SSE operation *)
  regs : int array; (* 8 GPRs, sign-extended 32-bit values *)
  xmm : int array; (* 8 x 4 lanes, flattened, sign-extended *)
  mutable flag_a : int;
  mutable flag_b : int;
  mutable now_ps : int;
  mutable pending_overhead_ps : int;
  mutable retired : int;
  mutable call_stack : int list;
  prefetch_streams : int array; (* last miss line per tracked stream *)
  mutable prefetch_rr : int;
  (* timing constants, precomputed in picoseconds *)
  q : int; (* quarter cycle *)
}

let create ?(config = default_config) ~aspace ~bus () =
  let clock = Timebase.clock ~mhz:config.clock_mhz in
  {
    aspace;
    mem = Address_space.phys_mem aspace;
    bus;
    clock;
    l1 =
      Cache.create ~name:"cpu-l1" ~size_bytes:config.l1_bytes
        ~line_bytes:config.line_bytes ~ways:config.l1_ways;
    l2 =
      Cache.create ~name:"cpu-l2" ~size_bytes:config.l2_bytes
        ~line_bytes:config.line_bytes ~ways:config.l2_ways;
    tlb = Tlb.create ~entries:config.tlb_entries;
    cur = no_entry;
    line_shift = Bits.log2 config.line_bytes;
    l1_results = Array.make ((max_access_bytes / config.line_bytes) + 2) 0;
    src4 = Array.make 4 0;
    regs = Array.make 8 0;
    xmm = Array.make 32 0;
    flag_a = 0;
    flag_b = 0;
    now_ps = 0;
    pending_overhead_ps = 0;
    retired = 0;
    call_stack = [];
    prefetch_streams = Array.make 8 min_int;
    prefetch_rr = 0;
    q = max 1 (Timebase.ps_per_cycle clock / 4);
  }

let aspace t = t.aspace
let clock t = t.clock
let l1 t = t.l1
let l2 t = t.l2
let now_ps t = t.now_ps
let advance_to_ps t ps = if ps > t.now_ps then t.now_ps <- ps
let add_time_ps t ps = t.now_ps <- t.now_ps + ps
let add_overhead_ps t ps = t.pending_overhead_ps <- t.pending_overhead_ps + ps
let call_stack t = t.call_stack
let instructions_retired t = t.retired
let tlb_hits t = Tlb.hits t.tlb
let tlb_misses t = Tlb.misses t.tlb

let reset_counters t =
  t.retired <- 0;
  Cache.reset_stats t.l1;
  Cache.reset_stats t.l2;
  Tlb.reset_stats t.tlb

(* The CPU reaches DRAM through the front-side bus: a single core's
   sustained streaming rate is well below the memory controller's peak
   (the integrated GMA sits controller-side and streams at full rate).
   Model: CPU requests occupy 1.5x their bytes. *)
let fsb_factor_num = 2
let fsb_factor_den = 1

let cpu_bus_request ?latency t ~bytes =
  Bus.request ?latency t.bus ~now_ps:t.now_ps
    ~bytes:(bytes * fsb_factor_num / fsb_factor_den)

(* ---- timing helpers (costs in quarter cycles) ---- *)

let cost t quarters = t.now_ps <- t.now_ps + (quarters * t.q)
let c_simple = 2 (* 0.5 cycle: ~2 simple uops/cycle *)
let c_imul = 6
let c_div = 40
let c_simd = 3 (* ~1.3 simple 128-bit ops per cycle sustained *)
let c_divps = 64
let c_sqrtps = 80
let c_br_taken = 4
let c_br_not_taken = 2
let c_callret = 8
let c_lea = 2
let c_l1_hit = 2 (* pipelined L1 hit: ~0.5 cycle effective *)
let c_l2_hit = 40 (* 10 cycles *)
let c_tlb_walk = 112 (* two cached page-table reads, ~28 cycles *)
let page_fault_ps = 1_500_000 (* 1.5 us OS fault service *)

(* ---- registers ---- *)

(* Registers hold 32-bit values as sign-extended OCaml ints, so no
   instruction boxes an int32. *)
let s32 v = ((v land 0xFFFF_FFFF) lxor 0x8000_0000) - 0x8000_0000
let u32 v = v land 0xFFFF_FFFF
let get_reg t r = Int32.of_int t.regs.(reg_index r)
let set_reg t r v = t.regs.(reg_index r) <- Int32.to_int v
let get_xmm_lane t ~xmm ~lane = Int32.of_int t.xmm.((xmm * 4) + lane)

(* ---- memory data path ---- *)

let page_mask = Phys_mem.page_size - 1

let translate t ~vaddr =
  let vpage = vaddr lsr Phys_mem.page_shift in
  let e = Tlb.lookup t.tlb ~vpage ~absent:no_entry in
  let e =
    if e != no_entry then e
    else begin
      cost t c_tlb_walk;
      (match Address_space.fault_in t.aspace ~vaddr with
      | `Already -> ()
      | `Faulted -> t.now_ps <- t.now_ps + page_fault_ps);
      match Page_table.walk (Address_space.page_table t.aspace) ~vpage with
      | Page_table.Mapped pte ->
        let e = { frame = Pte.Ia32.frame pte; marked = 0 } in
        Tlb.insert t.tlb ~vpage e;
        e
      | _ -> raise (Address_space.Segfault vaddr)
    end
  in
  t.cur <- e;
  (e.frame lsl Phys_mem.page_shift) lor (vaddr land page_mask)

(* Before touching memory directly through the latest translation, make
   sure the page's accessed (and for a write dirty) bit is set. *)
let mark t ~vaddr ~write =
  let e = t.cur in
  let need = if write then 2 else 1 in
  if e.marked < need then begin
    ignore (Address_space.translate t.aspace ~vaddr ~write);
    e.marked <- need
  end

(* A direct access must stay inside the translated page; one that
   straddles goes through the address space, which splits it. *)
let fits vaddr bytes = (vaddr land page_mask) + bytes <= Phys_mem.page_size

(* An L1 miss: the victim's write-back lands in L2, then the line is
   filled from L2 or, on an L2 miss, from DRAM over the bus. *)
let l1_miss t ~line_addr ~writeback =
  if writeback >= 0 then ignore (Cache.access t.l2 ~addr:writeback ~write:true);
  let r2 = Cache.access t.l2 ~addr:line_addr ~write:false in
  if r2 = Cache.hit then cost t c_l2_hit
  else begin
    (* the write-back is posted; it occupies the bus but the CPU does
       not wait for it *)
    if r2 >= 0 then ignore (cpu_bus_request t ~bytes:(Cache.line_bytes t.l2));
    (* multi-stream next-line hardware prefetch: a miss that continues
       one of the tracked streams pays only the transfer time; a random
       miss pays full DRAM latency and claims a stream slot round-robin *)
    let this_line = line_addr lsr t.line_shift in
    let sequential = ref false in
    for i = 0 to Array.length t.prefetch_streams - 1 do
      let last = t.prefetch_streams.(i) in
      if this_line = last + 1 || this_line = last then begin
        sequential := true;
        t.prefetch_streams.(i) <- this_line
      end
    done;
    if not !sequential then begin
      t.prefetch_streams.(t.prefetch_rr) <- this_line;
      t.prefetch_rr <- (t.prefetch_rr + 1) mod Array.length t.prefetch_streams
    end;
    let done_ps =
      cpu_bus_request ~latency:(not !sequential) t
        ~bytes:(Cache.line_bytes t.l2)
    in
    advance_to_ps t done_ps
  end

(* Account one cache access covering [paddr, paddr+size): the L1
   outcomes of its lines are charged in address order. *)
let cache_access t ~paddr ~size ~write =
  let n = Cache.access_lines t.l1 ~addr:paddr ~len:size ~write t.l1_results in
  let first = paddr lsr t.line_shift in
  for i = 0 to n - 1 do
    let r = t.l1_results.(i) in
    if r = Cache.hit then cost t c_l1_hit
    else l1_miss t ~line_addr:((first + i) lsl t.line_shift) ~writeback:r
  done

let read_scalar t ~paddr ~size =
  match size with
  | 1 -> Phys_mem.read_u8 t.mem paddr
  | 2 -> Phys_mem.read_u16 t.mem paddr
  | _ -> Phys_mem.read_i32 t.mem paddr

let write_scalar t ~paddr ~size v =
  match size with
  | 1 -> Phys_mem.write_u8 t.mem paddr v
  | 2 -> Phys_mem.write_u16 t.mem paddr v
  | _ -> Phys_mem.write_i32 t.mem paddr v

let aspace_read t ~vaddr ~size =
  match size with
  | 1 -> Address_space.read_u8 t.aspace vaddr
  | 2 -> Address_space.read_u16 t.aspace vaddr
  | _ -> Address_space.read_i32 t.aspace vaddr

let aspace_write t ~vaddr ~size v =
  match size with
  | 1 -> Address_space.write_u8 t.aspace vaddr v
  | 2 -> Address_space.write_u16 t.aspace vaddr v
  | _ -> Address_space.write_i32 t.aspace vaddr v

let load t ~vaddr ~size =
  let paddr = translate t ~vaddr in
  cache_access t ~paddr ~size ~write:false;
  if fits vaddr size then begin
    mark t ~vaddr ~write:false;
    read_scalar t ~paddr ~size
  end
  else aspace_read t ~vaddr ~size

let store t ~vaddr ~size v =
  let paddr = translate t ~vaddr in
  cache_access t ~paddr ~size ~write:true;
  if fits vaddr size then begin
    mark t ~vaddr ~write:true;
    write_scalar t ~paddr ~size v
  end
  else aspace_write t ~vaddr ~size v

(* One cache access covering four contiguous elements of [size] bytes
   (SSE loads/stores are single accesses, not per-lane ones), moved
   straight between memory and the lanes of [xmm]. [sext] sign-extends
   16-bit elements. *)
let load_lanes t ~vaddr ~size ~xmm ~sext =
  let paddr = translate t ~vaddr in
  cache_access t ~paddr ~size:(4 * size) ~write:false;
  let direct = fits vaddr (4 * size) in
  if direct then mark t ~vaddr ~write:false;
  for i = 0 to 3 do
    let v =
      if direct then read_scalar t ~paddr:(paddr + (i * size)) ~size
      else aspace_read t ~vaddr:(vaddr + (i * size)) ~size
    in
    t.xmm.((xmm * 4) + i) <-
      (if sext then ((v land 0xFFFF) lxor 0x8000) - 0x8000 else v)
  done

let store_lanes t ~vaddr ~size ~xmm =
  let paddr = translate t ~vaddr in
  cache_access t ~paddr ~size:(4 * size) ~write:true;
  let direct = fits vaddr (4 * size) in
  if direct then mark t ~vaddr ~write:true;
  for i = 0 to 3 do
    let v = t.xmm.((xmm * 4) + i) in
    if direct then write_scalar t ~paddr:(paddr + (i * size)) ~size v
    else aspace_write t ~vaddr:(vaddr + (i * size)) ~size v
  done

let flush_range t ~vaddr ~len =
  (* flush by physical line; translate page by page *)
  let total = ref 0 in
  let rec go vaddr len =
    if len > 0 then begin
      let in_page = min len (Phys_mem.page_size - (vaddr land page_mask)) in
      let paddr = translate t ~vaddr in
      let d1 = Cache.flush_range t.l1 ~addr:paddr ~len:in_page in
      let d2 = Cache.flush_range t.l2 ~addr:paddr ~len:in_page in
      let bytes =
        (List.length d1 * Cache.line_bytes t.l1)
        + (List.length d2 * Cache.line_bytes t.l2)
      in
      if bytes > 0 then begin
        let done_ps = Bus.request t.bus ~now_ps:t.now_ps ~bytes in
        advance_to_ps t done_ps
      end;
      total := !total + bytes;
      go (vaddr + in_page) (len - in_page)
    end
  in
  go vaddr len;
  !total

(* ---- decoded programs ----

   [load_program] decodes each instruction once into the form [exec]
   runs: registers become indices, data symbols fold into displacements,
   call targets resolve to indices or intrinsic names, and the operand
   shapes an opcode accepts become distinct constructors. *)

(* [base + index*scale + disp], register fields -1 when absent. *)
type addr = { base : int; index : int; scale : int; disp : int }

type opnd = Reg of int | Imm of int | Mem of addr | Xmm of int

(* SSE source: a register, or four separate dword loads. *)
type xsrc = Xr of int | Xm of addr | Xbad

type alu = Add_ | Sub_ | Imul_ | Sdiv_ | Srem_ | And_ | Or_ | Xor_
type shift = Shl_ | Shr_ | Sar_

type xbin =
  | Paddd_
  | Psubd_
  | Pmulld_
  | Pminsd_
  | Pmaxsd_
  | Pavgb_
  | Pcmpgtd_
  | Pavgd_
  | Pand_
  | Por_
  | Pxor_
  | Addps_
  | Subps_
  | Mulps_
  | Divps_
  | Minps_
  | Maxps_
  | Cmpps_ of cc

type xun = Pabsd_ | Packus_ | Sqrtps_ | Cvtdq2ps_ | Cvtps2dq_

type dinstr =
  | Nop_
  | Hlt_
  | Mov_to_xmm of int * int * opnd (* bytes, xmm, src: lane 0 only *)
  | Mov_from_xmm of int * opnd * int (* bytes, dst, xmm lane 0 *)
  | Mov_ of int * opnd * opnd (* bytes, dst, src *)
  | Movsx_ of int * int * opnd * addr (* bytes, bits, dst, src *)
  | Lea_ of int * addr
  | Alu of alu * int * opnd * opnd (* op, cost, dst, src *)
  | Not_ of opnd
  | Neg_ of opnd
  | Shift of shift * opnd * opnd
  | Cmp_ of opnd * opnd
  | Test_ of opnd * opnd
  | Setcc_ of cc * opnd
  | Push_ of opnd
  | Pop_ of int
  | Call_internal of int
  | Call_intrinsic of string
  | Call_unresolved
  | Ret_
  | Jmp_ of int
  | Jcc_ of cc * int
  | Movdqu_rr of int * int
  | Movdqu_load of int * addr
  | Movdqu_store of addr * int
  | Movntdq_ of addr * int
  | Movd_to_xmm of int * int
  | Movd_from_xmm of int * int
  | Movpk_load of msize * int * addr
  | Movpk_store of msize * addr * int
  | Xbin of xbin * int * int * xsrc (* op, cost, dst, src *)
  | Xun of xun * int * int * xsrc
  | Psadd_ of int * xsrc
  | Phaddd_ of int * xsrc
  | Xshift of shift * int * int (* op, xmm, count *)
  | Pshufd_ of int * int * int
  | Movmskps_ of int * int
  | Malformed (* operand shape the opcode does not accept *)

type code = dinstr array

type loaded = {
  prog : Via32_ast.program;
  sym_addrs : (string * int) list;
  code : code;
}

exception Unbound_symbol of string
exception Unknown_intrinsic of string

let decode_addr ~symbols (m : mem) =
  let sym =
    match m.sym with
    | None -> 0
    | Some s -> (
      match List.assoc_opt s symbols with
      | Some a -> a
      | None -> raise (Unbound_symbol s))
  in
  {
    base = (match m.base with Some r -> reg_index r | None -> -1);
    index = (match m.index with Some (r, _) -> reg_index r | None -> -1);
    scale = (match m.index with Some (_, s) -> s | None -> 0);
    disp = m.disp + sym;
  }

let decode_opnd ~symbols = function
  | R r -> Reg (reg_index r)
  | X x -> Xmm x
  | I i -> Imm (Int32.to_int i)
  | M m -> Mem (decode_addr ~symbols m)

let decode_xsrc ~symbols = function
  | X x -> Xr x
  | M m -> Xm (decode_addr ~symbols m)
  | R _ | I _ -> Xbad

let msize_bytes = function B1 -> 1 | B2 -> 2 | B4 -> 4

let decode_instr ~symbols prog pc (i : instr) =
  let opnd = decode_opnd ~symbols and xsrc = decode_xsrc ~symbols in
  let addr = decode_addr ~symbols in
  let alu op c = match i.operands with [ d; s ] -> Alu (op, c, opnd d, opnd s) | _ -> Malformed in
  let xbin op c =
    match i.operands with [ X d; s ] -> Xbin (op, c, d, xsrc s) | _ -> Malformed
  in
  let xun op c =
    match i.operands with [ X d; s ] -> Xun (op, c, d, xsrc s) | _ -> Malformed
  in
  let shift op = match i.operands with [ d; s ] -> Shift (op, opnd d, opnd s) | _ -> Malformed in
  match (i.op, i.operands) with
  | Nop, _ -> Nop_
  | Hlt, _ -> Hlt_
  | Mov size, [ X x; s ] -> Mov_to_xmm (msize_bytes size, x, opnd s)
  | Mov size, [ d; X x ] -> Mov_from_xmm (msize_bytes size, opnd d, x)
  | Mov size, [ d; s ] -> Mov_ (msize_bytes size, opnd d, opnd s)
  | Movsx size, [ d; M m ] ->
    let bits = match size with B1 -> 8 | B2 -> 16 | B4 -> 32 in
    Movsx_ (msize_bytes size, bits, opnd d, addr m)
  | Lea, [ R d; M m ] -> Lea_ (reg_index d, addr m)
  | Add, _ -> alu Add_ c_simple
  | Sub, _ -> alu Sub_ c_simple
  | Imul, _ -> alu Imul_ c_imul
  | Sdiv, _ -> alu Sdiv_ c_div
  | Srem, _ -> alu Srem_ c_div
  | And, _ -> alu And_ c_simple
  | Or, _ -> alu Or_ c_simple
  | Xor, _ -> alu Xor_ c_simple
  | Not, [ d ] -> Not_ (opnd d)
  | Neg, [ d ] -> Neg_ (opnd d)
  | Shl, _ -> shift Shl_
  | Shr, _ -> shift Shr_
  | Sar, _ -> shift Sar_
  | Cmp, [ a; b ] -> Cmp_ (opnd a, opnd b)
  | Test, [ a; b ] -> Test_ (opnd a, opnd b)
  | Setcc cc, [ d ] -> Setcc_ (cc, opnd d)
  | Push, [ s ] -> Push_ (opnd s)
  | Pop, [ R d ] -> Pop_ (reg_index d)
  | Call, _ -> (
    match Via32_ast.call_target prog pc with
    | Some (Internal target) -> Call_internal target
    | Some (Intrinsic name) -> Call_intrinsic name
    | None -> Call_unresolved)
  | Ret, _ -> Ret_
  | Jmp, [ I target ] -> Jmp_ (Int32.to_int target)
  | Jcc cc, [ I target ] -> Jcc_ (cc, Int32.to_int target)
  | Movdqu, [ X d; X s ] -> Movdqu_rr (d, s)
  | Movdqu, [ X d; M m ] -> Movdqu_load (d, addr m)
  | Movdqu, [ M m; X s ] -> Movdqu_store (addr m, s)
  | Movntdq, [ M m; X s ] -> Movntdq_ (addr m, s)
  | Movd, [ X d; R s ] -> Movd_to_xmm (d, reg_index s)
  | Movd, [ R d; X s ] -> Movd_from_xmm (reg_index d, s)
  | Movpk size, [ X d; M m ] -> Movpk_load (size, d, addr m)
  | Movpk size, [ M m; X s ] -> Movpk_store (size, addr m, s)
  | Paddd, _ -> xbin Paddd_ c_simd
  | Psubd, _ -> xbin Psubd_ c_simd
  | Pmulld, _ -> xbin Pmulld_ c_simd
  | Pminsd, _ -> xbin Pminsd_ c_simd
  | Pmaxsd, _ -> xbin Pmaxsd_ c_simd
  | Pabsd, _ -> xun Pabsd_ c_simd
  | Pavgb, _ -> xbin Pavgb_ c_simd
  | Pcmpgtd, _ -> xbin Pcmpgtd_ c_simd
  | Pavgd, _ -> xbin Pavgd_ c_simd
  | Psadd, [ X d; s ] -> Psadd_ (d, xsrc s)
  | Phaddd, [ X d; s ] -> Phaddd_ (d, xsrc s)
  | Packus, _ -> xun Packus_ c_simd
  | Pand, _ -> xbin Pand_ c_simd
  | Por, _ -> xbin Por_ c_simd
  | Pxor, _ -> xbin Pxor_ c_simd
  | Pslld, [ X d; I n ] -> Xshift (Shl_, d, Int32.to_int n land 31)
  | Psrld, [ X d; I n ] -> Xshift (Shr_, d, Int32.to_int n land 31)
  | Psrad, [ X d; I n ] -> Xshift (Sar_, d, Int32.to_int n land 31)
  | Pshufd, [ X d; X s; I ctrl ] -> Pshufd_ (d, s, Int32.to_int ctrl)
  | Addps, _ -> xbin Addps_ c_simd
  | Subps, _ -> xbin Subps_ c_simd
  | Mulps, _ -> xbin Mulps_ c_simd
  | Divps, _ -> xbin Divps_ c_divps
  | Minps, _ -> xbin Minps_ c_simd
  | Maxps, _ -> xbin Maxps_ c_simd
  | Sqrtps, _ -> xun Sqrtps_ c_sqrtps
  | Cvtdq2ps, _ -> xun Cvtdq2ps_ c_simd
  | Cvtps2dq, _ -> xun Cvtps2dq_ c_simd
  | Cmpps cc, _ -> xbin (Cmpps_ cc) c_simd
  | Movmskps, [ R d; X s ] -> Movmskps_ (reg_index d, s)
  | ( ( Mov _ | Movsx _ | Lea | Not | Neg | Cmp | Test | Setcc _ | Push | Pop
      | Jmp | Jcc _ | Movdqu | Movntdq | Movd | Movpk _ | Psadd | Phaddd
      | Pslld | Psrld | Psrad | Pshufd | Movmskps ),
      _ ) ->
    Malformed

let load_program prog ~symbols =
  Array.iter
    (fun s ->
      if not (List.mem_assoc s symbols) then raise (Unbound_symbol s))
    prog.symbols;
  {
    prog;
    sym_addrs = symbols;
    code = Array.mapi (decode_instr ~symbols prog) prog.instrs;
  }

(* ---- execution ---- *)

type stop_reason = Halted | Ret_to_host | Fuel_exhausted | Paused of int

let ea t a =
  let base = if a.base >= 0 then t.regs.(a.base) else 0 in
  let index = if a.index >= 0 then t.regs.(a.index) * a.scale else 0 in
  (base + index + a.disp) land 0xFFFF_FFFF

let read_opnd t ~size = function
  | Reg r -> t.regs.(r)
  | Imm i -> i
  | Mem a -> load t ~vaddr:(ea t a) ~size
  | Xmm _ -> invalid_arg "scalar_value: xmm"

let write_opnd t ~size v = function
  | Reg r -> t.regs.(r) <- v
  | Mem a -> store t ~vaddr:(ea t a) ~size v
  | Imm _ | Xmm _ -> invalid_arg "scalar_store"

(* Copy the second source of an SSE operation into [t.src4], so the
   destination can be updated in place. A memory source is four
   separate dword loads. *)
let fetch_xsrc t = function
  | Xr x -> Array.blit t.xmm (x * 4) t.src4 0 4
  | Xm a ->
    let base = ea t a in
    for i = 0 to 3 do
      t.src4.(i) <- load t ~vaddr:(base + (i * 4)) ~size:4
    done
  | Xbad -> invalid_arg "xmm_src"

let eval_cc cc a b =
  match cc with
  | E -> a = b
  | NE -> a <> b
  | L -> a < b
  | LE -> a <= b
  | G -> a > b
  | GE -> a >= b
  | B -> u32 a < u32 b
  | BE -> u32 a <= u32 b
  | A -> u32 a > u32 b
  | AE -> u32 a >= u32 b

let[@inline] f32 v = Int32.float_of_bits (Int32.of_int v)
let[@inline] bits f = Int32.to_int (Int32.bits_of_float f)

let eval_cc_float cc a b =
  let fa = f32 a and fb = f32 b in
  match cc with
  | E -> fa = fb
  | NE -> fa <> fb
  | L | B -> fa < fb
  | LE | BE -> fa <= fb
  | G | A -> fa > fb
  | GE | AE -> fa >= fb

let alu op a b =
  match op with
  | Add_ -> s32 (a + b)
  | Sub_ -> s32 (a - b)
  | Imul_ -> s32 (a * b)
  | Sdiv_ -> if b = 0 then 0 else s32 (a / b)
  | Srem_ -> if b = 0 then 0 else a mod b
  | And_ -> a land b
  | Or_ -> a lor b
  | Xor_ -> a lxor b

let shift op a n =
  match op with
  | Shl_ -> s32 (a lsl n)
  | Shr_ -> s32 (u32 a lsr n)
  | Sar_ -> a asr n

let avg_byte a b sh = ((((a lsr sh) land 0xff) + ((b lsr sh) land 0xff) + 1) lsr 1) lsl sh

let xbin op a b =
  match op with
  | Paddd_ -> s32 (a + b)
  | Psubd_ -> s32 (a - b)
  | Pmulld_ -> s32 (a * b)
  | Pminsd_ -> if a < b then a else b
  | Pmaxsd_ -> if a > b then a else b
  | Pavgb_ ->
    s32 (avg_byte a b 0 lor avg_byte a b 8 lor avg_byte a b 16 lor avg_byte a b 24)
  | Pcmpgtd_ -> if a > b then -1 else 0
  | Pavgd_ -> s32 ((u32 a + u32 b + 1) / 2)
  | Pand_ -> a land b
  | Por_ -> a lor b
  | Pxor_ -> a lxor b
  | Addps_ -> bits (f32 a +. f32 b)
  | Subps_ -> bits (f32 a -. f32 b)
  | Mulps_ -> bits (f32 a *. f32 b)
  | Divps_ -> bits (f32 a /. f32 b)
  | Minps_ -> bits (Float.min (f32 a) (f32 b))
  | Maxps_ -> bits (Float.max (f32 a) (f32 b))
  | Cmpps_ cc -> if eval_cc_float cc a b then -1 else 0

let xun op a =
  match op with
  | Pabsd_ -> s32 (abs a)
  | Packus_ -> if a < 0 then 0 else if a > 255 then 255 else a
  | Sqrtps_ -> bits (sqrt (f32 a))
  | Cvtdq2ps_ -> bits (Int32.to_float (Int32.of_int a))
  | Cvtps2dq_ -> Int32.to_int (Int32.of_float (Float.round (f32 a)))

(* Execute instruction [pc]; return the next pc, or -1 to stop. *)
let exec t loaded ~intrinsics ~pc =
  let next = pc + 1 in
  match loaded.code.(pc) with
  | Nop_ ->
    cost t c_simple;
    next
  | Hlt_ -> -1
  | Mov_to_xmm (size, x, s) ->
    (* mov.d xmm, r/imm: broadcast is not implied; lane 0 only *)
    t.xmm.(x * 4) <- read_opnd t ~size s;
    cost t c_simple;
    next
  | Mov_from_xmm (size, d, x) ->
    write_opnd t ~size t.xmm.(x * 4) d;
    cost t c_simple;
    next
  | Mov_ (size, d, s) ->
    write_opnd t ~size (read_opnd t ~size s) d;
    cost t c_simple;
    next
  | Movsx_ (size, bits_n, d, a) ->
    let v = load t ~vaddr:(ea t a) ~size in
    write_opnd t ~size:4 (Bits.sign_extend v ~bits:bits_n) d;
    cost t c_simple;
    next
  | Lea_ (d, a) ->
    t.regs.(d) <- s32 (ea t a);
    cost t c_lea;
    next
  | Alu (op, c, d, s) ->
    let a = read_opnd t ~size:4 d in
    let b = read_opnd t ~size:4 s in
    write_opnd t ~size:4 (alu op a b) d;
    cost t c;
    next
  | Not_ d ->
    write_opnd t ~size:4 (lnot (read_opnd t ~size:4 d)) d;
    cost t c_simple;
    next
  | Neg_ d ->
    write_opnd t ~size:4 (s32 (-read_opnd t ~size:4 d)) d;
    cost t c_simple;
    next
  | Shift (op, d, s) ->
    let a = read_opnd t ~size:4 d in
    let n = read_opnd t ~size:4 s land 31 in
    write_opnd t ~size:4 (shift op a n) d;
    cost t c_simple;
    next
  | Cmp_ (a, b) ->
    t.flag_a <- read_opnd t ~size:4 a;
    t.flag_b <- read_opnd t ~size:4 b;
    cost t c_simple;
    next
  | Test_ (a, b) ->
    let va = read_opnd t ~size:4 a in
    let vb = read_opnd t ~size:4 b in
    t.flag_a <- va land vb;
    t.flag_b <- 0;
    cost t c_simple;
    next
  | Setcc_ (cc, d) ->
    write_opnd t ~size:4 (if eval_cc cc t.flag_a t.flag_b then 1 else 0) d;
    cost t c_simple;
    next
  | Push_ s ->
    let v = read_opnd t ~size:4 s in
    let sp = t.regs.(7) - 4 in
    t.regs.(7) <- s32 sp;
    store t ~vaddr:sp ~size:4 v;
    cost t c_simple;
    next
  | Pop_ d ->
    let sp = t.regs.(7) in
    let v = load t ~vaddr:sp ~size:4 in
    t.regs.(7) <- s32 (sp + 4);
    t.regs.(d) <- v;
    cost t c_simple;
    next
  | Call_internal target ->
    cost t c_callret;
    t.call_stack <- next :: t.call_stack;
    target
  | Call_intrinsic name ->
    cost t c_callret;
    intrinsics name t;
    next
  | Call_unresolved ->
    cost t c_callret;
    raise (Unknown_intrinsic "unresolved call")
  | Ret_ -> (
    cost t c_callret;
    match t.call_stack with
    | ra :: rest ->
      t.call_stack <- rest;
      ra
    | [] -> -1)
  | Jmp_ target ->
    cost t c_br_taken;
    target
  | Jcc_ (cc, target) ->
    if eval_cc cc t.flag_a t.flag_b then begin
      cost t c_br_taken;
      target
    end
    else begin
      cost t c_br_not_taken;
      next
    end
  | Movdqu_rr (d, s) ->
    Array.blit t.xmm (s * 4) t.xmm (d * 4) 4;
    cost t c_simd;
    next
  | Movdqu_load (d, a) ->
    load_lanes t ~vaddr:(ea t a) ~size:4 ~xmm:d ~sext:false;
    cost t c_simd;
    next
  | Movdqu_store (a, s) ->
    store_lanes t ~vaddr:(ea t a) ~size:4 ~xmm:s;
    cost t c_simd;
    next
  | Movntdq_ (a, s) ->
    let base = ea t a in
    let paddr = translate t ~vaddr:base in
    (* write-combining: posted straight to the bus, no cache line *)
    ignore (cpu_bus_request ~latency:false t ~bytes:16);
    let direct = fits base 16 in
    if direct then mark t ~vaddr:base ~write:true;
    for l = 0 to 3 do
      let v = t.xmm.((s * 4) + l) in
      if direct then Phys_mem.write_i32 t.mem (paddr + (l * 4)) v
      else Address_space.write_i32 t.aspace (base + (l * 4)) v
    done;
    cost t c_simd;
    next
  | Movd_to_xmm (d, s) ->
    let o = d * 4 in
    t.xmm.(o) <- t.regs.(s);
    t.xmm.(o + 1) <- 0;
    t.xmm.(o + 2) <- 0;
    t.xmm.(o + 3) <- 0;
    cost t c_simple;
    next
  | Movd_from_xmm (d, s) ->
    t.regs.(d) <- t.xmm.(s * 4);
    cost t c_simple;
    next
  | Movpk_load (size, d, a) ->
    (* bytes zero-extend, words sign-extend *)
    load_lanes t ~vaddr:(ea t a) ~size:(msize_bytes size) ~xmm:d
      ~sext:(size = B2);
    cost t c_simd;
    next
  | Movpk_store (size, a, s) ->
    store_lanes t ~vaddr:(ea t a) ~size:(msize_bytes size) ~xmm:s;
    cost t c_simd;
    next
  | Xbin (op, c, d, s) ->
    fetch_xsrc t s;
    let o = d * 4 in
    for l = 0 to 3 do
      t.xmm.(o + l) <- xbin op t.xmm.(o + l) t.src4.(l)
    done;
    cost t c;
    next
  | Xun (op, c, d, s) ->
    fetch_xsrc t s;
    let o = d * 4 in
    for l = 0 to 3 do
      t.xmm.(o + l) <- xun op t.src4.(l)
    done;
    cost t c;
    next
  | Psadd_ (d, s) ->
    fetch_xsrc t s;
    let o = d * 4 in
    let sum = ref 0 in
    for l = 0 to 3 do
      sum := s32 (!sum + abs (s32 (t.xmm.(o + l) - t.src4.(l))))
    done;
    t.xmm.(o) <- !sum;
    t.xmm.(o + 1) <- 0;
    t.xmm.(o + 2) <- 0;
    t.xmm.(o + 3) <- 0;
    cost t c_simd;
    next
  | Phaddd_ (d, s) ->
    fetch_xsrc t s;
    let o = d * 4 in
    t.xmm.(o) <- s32 (t.src4.(0) + t.src4.(1) + t.src4.(2) + t.src4.(3));
    t.xmm.(o + 1) <- 0;
    t.xmm.(o + 2) <- 0;
    t.xmm.(o + 3) <- 0;
    cost t c_simd;
    next
  | Xshift (op, d, n) ->
    let o = d * 4 in
    for l = 0 to 3 do
      t.xmm.(o + l) <- shift op t.xmm.(o + l) n
    done;
    cost t c_simd;
    next
  | Pshufd_ (d, s, c) ->
    Array.blit t.xmm (s * 4) t.src4 0 4;
    let o = d * 4 in
    for l = 0 to 3 do
      t.xmm.(o + l) <- t.src4.((c lsr (l * 2)) land 3)
    done;
    cost t c_simd;
    next
  | Movmskps_ (d, s) ->
    let mask = ref 0 in
    for l = 0 to 3 do
      if t.xmm.((s * 4) + l) < 0 then mask := !mask lor (1 lsl l)
    done;
    t.regs.(d) <- !mask;
    cost t c_simple;
    next
  | Malformed -> assert false

let run ?(fuel = max_int) ?poll ?on_instr t loaded ~entry ~intrinsics =
  let fuel = ref fuel in
  let pc = ref entry in
  let result = ref None in
  let running = ref true in
  while !running do
    if !fuel <= 0 then begin
      result := Some Fuel_exhausted;
      running := false
    end
    else begin
      decr fuel;
      if t.pending_overhead_ps > 0 then begin
        t.now_ps <- t.now_ps + t.pending_overhead_ps;
        t.pending_overhead_ps <- 0
      end;
      (match poll with Some f -> f t | None -> ());
      let pause =
        match on_instr with
        | Some f -> f t ~pc:!pc = `Pause
        | None -> false
      in
      if pause then begin
        result := Some (Paused !pc);
        running := false
      end
      else begin
        let stop_kind =
          match loaded.code.(!pc) with
          | Ret_ when t.call_stack = [] -> Ret_to_host
          | _ -> Halted
        in
        let next = exec t loaded ~intrinsics ~pc:!pc in
        t.retired <- t.retired + 1;
        if next >= 0 then pc := next
        else begin
          result := Some stop_kind;
          running := false
        end
      end
    end
  done;
  Option.get !result
