open Exochi_util
open Exochi_memory
open Exochi_isa.X3k_ast
module Fault_plan = Exochi_faults.Fault_plan
module Trace = Exochi_obs.Trace

type config = {
  clock_mhz : int;
  eus : int;
  threads_per_eu : int;
  cache_bytes : int;
  cache_ways : int;
  line_bytes : int;
  tlb_entries : int;
  dispatch_cycles : int;
  switch_on_stall : bool;
  fault_plan : Fault_plan.t option;
  trace : Trace.sink option;
  dev : int;  (* device index in the platform's device set *)
}

let default_config =
  {
    clock_mhz = 667;
    eus = 8;
    threads_per_eu = 4;
    cache_bytes = 128 * 1024;
    cache_ways = 8;
    line_bytes = 64;
    tlb_entries = 128;
    dispatch_cycles = 120;
    switch_on_stall = true;
    fault_plan = None;
    trace = None;
    dev = 0;
  }

type shred = { shred_id : int; entry : int; params : int array }

type fault_request = {
  fault_op : opcode;
  fault_dtype : dtype;
  lane_a : int array;
  lane_b : int array;
}

type hooks = {
  atr : vpage:int -> now_ps:int -> Pte.X3k.t option * int;
  ceh : fault_request -> now_ps:int -> int array * int;
  ceh_spurious : now_ps:int -> int;
  mem_delay : paddr:int -> bytes:int -> write:bool -> now_ps:int -> int;
  on_shred_done : shred -> now_ps:int -> unit;
}

exception Stuck of string

exception
  Gpu_segfault of { vaddr : int; vpage : int; shred_id : int }

(* Context states, as ints so a state change allocates nothing. A
   stalled context resumes at [resume]; one waiting on a semaphore is
   parked in [sem_waiters]. *)
let st_idle = 0
let st_ready = 1
let st_stalled = 2
let st_wait_sem = 3
let st_hung = 4 (* injected fault: the context stopped retiring *)

type ctx = {
  mutable state : int;
  mutable resume : int; (* ps, while stalled *)
  mutable pc : int;
  vregs : int array; (* 128 regs x 16 lanes *)
  reg_ready : int array; (* per-register scoreboard, ps *)
  flags : int array; (* 4 flag registers, 16-bit lane masks *)
  flag_ready : int array;
  mutable shred : shred option;
  mutable store_done : int; (* last posted store completion *)
  mutable started : int; (* dispatch timestamp, for the watchdog *)
  mutable fails : int; (* consecutive reaps on this slot *)
  mutable completions : int; (* shreds retired by this slot, ever *)
  mutable disabled : bool; (* quarantined: removed from the eligible set *)
  mutable sems_held : int list;
  (* scratch lanes of the instruction in flight *)
  lane_a : int array;
  lane_b : int array;
  lane_r : int array;
  vaddrs : int array;
  paddrs : int array;
}

type eu = {
  eu_id : int;
  ctxs : ctx array;
  mutable now : int;
  mutable current : int;
  mutable streak : int; (* consecutive issues from the current context *)
}

(* ---- decoded instructions ----

   [bind] decodes the program once. Register operands become the
   register-file index of each lane, immediates and special registers
   become lane sources, memory operands keep their surface slot and
   coordinate registers, and everything the scoreboard, the predicate
   and the clock need (registers read, flag read, issue cycles, result
   latency) is precomputed. *)

(* A source of [width] lanes. *)
type src =
  | Lanes of int array (* register-file index of each lane *)
  | Const of int (* immediate, or %eu / %tid (0) *)
  | Iota (* %lane *)
  | Shred_id
  | Team_size
  | Param of int
  | Flag_bits of int
  | No_src of string (* not a lane source: raises when read *)

(* A destination: the register-file index of each lane plus the
   registers whose scoreboard entry a write updates. *)
type dst = Dlanes of int array * int array | Dother

(* Memory addressing: 1-D element index or 2-D row walk. *)
type maddr =
  | Elem of { slot : int; index : int; offset : int }
  | Row of { slot : int; xreg : int; yreg : int }
  | No_maddr

type kind =
  | K_nop
  | K_alu (* two-source lane op *)
  | K_mac (* dst += a * b *)
  | K_fmac
  | K_bcast
  | K_unary
  | K_fdiv
  | K_fsqrt
  | K_dpadd
  | K_sad
  | K_hadd
  | K_cmp of cond * int (* flag written *)
  | K_sel
  | K_ld
  | K_st
  | K_gather
  | K_scatter
  | K_sample
  | K_br of brmode * int * int (* mode, flag, target *)
  | K_jmp of int
  | K_end
  | K_fence
  | K_semacq of int
  | K_semrel of int
  | K_sendreg of int * int (* register holding the target id, register *)
  | K_spawn of int * int (* entry, parameter register *)
  | K_bad of string (* malformed: raises Invalid_argument when executed *)

type dinstr = {
  kind : kind;
  op : opcode;
  dtype : dtype;
  width : int;
  full : int; (* all-lanes mask *)
  pred_flag : int; (* -1: unpredicated *)
  pred_neg : bool;
  s0 : src;
  s1 : src;
  dst : dst;
  maddr : maddr;
  rdy_regs : int array; (* registers the scoreboard waits on *)
  rdy_flags : int array; (* flags the scoreboard waits on *)
  ceh_eligible : bool; (* may take an injected spurious CEH trap *)
  issue : int; (* issue cycles *)
  lat : int; (* result latency, ps *)
}

type binding = { prog : program; surf_table : Surface.t array }

(* One entry per hedged shred id. The entry exists while copies race;
   the first copy to retire wins, cancels the others and removes the
   entry — removal is load-bearing because shred ids restart at 0 with
   every team, so a stale entry would hijack a later team's shred. *)
type hedge_entry = { mutable won : bool }

type t = {
  cfg : config;
  aspace : Address_space.t;
  mem : Phys_mem.t;
  bus : Bus.t;
  hooks : hooks;
  clock : Timebase.clock;
  cycle : int; (* ps *)
  cache : Cache.t;
  gtlb : Pte.X3k.t Tlb.t;
  eus : eu array;
  queue : shred Queue.t;
  parked : shred Queue.t; (* enqueued but doorbell lost: invisible to EUs *)
  mutable binding : binding option;
  mutable code : dinstr array; (* the bound program, decoded *)
  (* programs this device decoded, by physical identity, most recently
     bound first; at most [decoded_cap] entries *)
  mutable decoded : (program * dinstr array) list;
  mutable nshred : int; (* team size visible as %nshred *)
  mutable spawn_counter : int;
  sem_held : bool array;
  mutable sem_waiters : (int * int) list array; (* (eu, slot) *)
  pending_regs : (int, (int * int array) list ref) Hashtbl.t;
  hedged : (int, hedge_entry) Hashtbl.t; (* shred_id -> race state *)
  mutable hedge_wins_ : int;
  mutable sampler_busy : int;
  (* outcome details of the instruction [exec] just ran *)
  mutable replay_at : int;
  mutable blocked_on : int;
  (* per-line cache outcomes of one timed access *)
  line_res : int array; (* per-line cache outcomes of one access *)
  (* scratch context of the IA32 fallback emulator *)
  mutable emu_ctx : ctx option;
  (* counters *)
  mutable retired : int;
  mutable switches : int;
  mutable busy_cyc : int;
  mutable completed : int;
  mutable sampler_reqs : int;
  mutable last_done : int; (* time the most recent shred finished *)
  mutable operand_stall_ps : int;
  (* Exo-scope profiler hook: called once per retired instruction with
     the bound program, the pc that issued, and its exact simulated cost
     in ps. Must be pure accumulation — no clock / PRNG / machine state —
     so profiled runs stay bit- and time-identical (same contract as the
     trace sink). *)
  mutable prof : (prog:program -> pc:int -> cost_ps:int -> unit) option;
}

let mk_ctx () =
  {
    state = st_idle;
    resume = 0;
    pc = 0;
    vregs = Array.make (128 * 16) 0;
    reg_ready = Array.make 128 0;
    flags = Array.make 4 0;
    flag_ready = Array.make 4 0;
    shred = None;
    store_done = 0;
    started = 0;
    fails = 0;
    completions = 0;
    disabled = false;
    sems_held = [];
    lane_a = Array.make 16 0;
    lane_b = Array.make 16 0;
    lane_r = Array.make 16 0;
    vaddrs = Array.make 16 0;
    paddrs = Array.make 16 0;
  }

(* Widest single timed access: 16 dword lanes. *)
let max_access_bytes = 64

let create ?(config = default_config) ~aspace ~bus ~hooks () =
  let clock = Timebase.clock ~mhz:config.clock_mhz in
  {
    cfg = config;
    aspace;
    mem = Address_space.phys_mem aspace;
    bus;
    hooks;
    clock;
    cycle = Timebase.ps_per_cycle clock;
    cache =
      Cache.create ~name:"gpu-cache" ~size_bytes:config.cache_bytes
        ~line_bytes:config.line_bytes ~ways:config.cache_ways;
    gtlb = Tlb.create ~entries:config.tlb_entries;
    eus =
      Array.init config.eus (fun eu_id ->
          {
            eu_id;
            ctxs = Array.init config.threads_per_eu (fun _ -> mk_ctx ());
            now = 0;
            current = 0;
            streak = 0;
          });
    queue = Queue.create ();
    parked = Queue.create ();
    binding = None;
    code = [||];
    decoded = [];
    nshred = 0;
    spawn_counter = 0;
    sem_held = Array.make 16 false;
    sem_waiters = Array.make 16 [];
    pending_regs = Hashtbl.create 64;
    hedged = Hashtbl.create 16;
    hedge_wins_ = 0;
    sampler_busy = 0;
    replay_at = 0;
    blocked_on = 0;
    line_res = Array.make ((max_access_bytes / config.line_bytes) + 2) 0;
    emu_ctx = None;
    retired = 0;
    switches = 0;
    busy_cyc = 0;
    completed = 0;
    sampler_reqs = 0;
    last_done = 0;
    operand_stall_ps = 0;
    prof = None;
  }

let set_profiler t f = t.prof <- Some f

let config t = t.cfg
let clock t = t.clock
let cache t = t.cache
let tlb t = t.gtlb

let now_ps t = Array.fold_left (fun acc eu -> max acc eu.now) 0 t.eus

(* Tracing reads simulator state only — no clock, counter, or PRNG is
   touched — so a traced run is time-for-time and bit-for-bit identical
   to an untraced one. Call sites that build events on the hot path
   test [tracing] first, so an untraced run allocates nothing for them. *)
let tracing t = match t.cfg.trace with None -> false | Some _ -> true

let trace_emit t ~ts ?dur ~seq kind =
  match t.cfg.trace with
  | None -> ()
  | Some sink -> Trace.emit sink ~ts_ps:ts ?dur_ps:dur ~dev:t.cfg.dev ~seq kind

(* ---- decoding ---- *)

let lat_alu t = Exochi_isa.X3k_cost.alu_latency_cycles * t.cycle
let lat_mul t = Exochi_isa.X3k_cost.mul_latency_cycles * t.cycle
let lat_fdiv t = Exochi_isa.X3k_cost.fdiv_latency_cycles * t.cycle
let lat_fsqrt t = Exochi_isa.X3k_cost.fsqrt_latency_cycles * t.cycle
let lat_cmp t = Exochi_isa.X3k_cost.cmp_latency_cycles * t.cycle

(* Register-file index of each lane of a register operand: a range of
   registers spreads the lanes evenly over its registers. *)
let lane_slots ~width = function
  | Reg r -> Some (Array.init width (fun j -> (r * 16) + j))
  | Range (a, b) ->
    let per = width / (b - a + 1) in
    if per = 0 then None
    else Some (Array.init width (fun j -> ((a + (j / per)) * 16) + (j mod per)))
  | _ -> None

let decode_src ~width = function
  | (Reg _ | Range _) as op -> (
    match lane_slots ~width op with
    | Some s -> Lanes s
    | None -> No_src "register range narrower than its registers")
  | Imm i -> Const (Lane.wrap32 (Int32.to_int i))
  | Sreg Lane -> Iota
  | Sreg Sid -> Shred_id
  | Sreg Nshred -> Team_size
  | Sreg (Eu | Tid) -> Const 0
  | Sreg (Param n) -> Param n
  | Flag f -> Flag_bits f
  | Surf _ | Surf2d _ | Remote _ -> No_src "memory operand where lanes are expected"

let decode_dst ~width = function
  | Some ((Reg _ | Range _) as op) -> (
    match (lane_slots ~width op, op) with
    | Some s, Reg r -> Dlanes (s, [| r |])
    | Some s, Range (a, b) -> Dlanes (s, Array.init (b - a + 1) (fun k -> a + k))
    | _ -> Dother)
  | _ -> Dother

let decode_maddr = function
  | Surf { slot; index; offset } -> Elem { slot; index; offset }
  | Surf2d { slot; xreg; yreg } -> Row { slot; xreg; yreg }
  | _ -> No_maddr

(* Registers and flags whose scoreboard entries gate issue: every source
   operand, a register/memory/remote destination, and the predicate. *)
let ready_sets (i : instr) =
  let regs = ref [] and flags = ref [] in
  let operand = function
    | Reg r -> regs := r :: !regs
    | Range (a, b) ->
      for k = a to b do
        regs := k :: !regs
      done
    | Flag f -> flags := f :: !flags
    | Surf { index; _ } -> regs := index :: !regs
    | Surf2d { xreg; yreg; _ } -> regs := xreg :: yreg :: !regs
    | Remote { shred_reg; _ } -> regs := shred_reg :: !regs
    | Imm _ | Sreg _ -> ()
  in
  (match i.dst with
  | Some (Flag _) | None -> ()
  | Some d -> operand d);
  List.iter operand i.srcs;
  (match i.pred with Some { flag; _ } -> flags := flag :: !flags | None -> ());
  (Array.of_list (List.sort_uniq compare !regs), Array.of_list (List.sort_uniq compare !flags))

let decode_kind (i : instr) =
  match i.op with
  | Nop -> K_nop
  | Add | Sub | Mul | Min | Max | Avg | Shl | Shr | Sar | And | Or | Xor | Fadd
  | Fsub | Fmul | Fmin | Fmax ->
    K_alu
  | Mac -> K_mac
  | Fmac -> K_fmac
  | Bcast -> K_bcast
  | Mov | Abs | Not | Sat | Fabs | Cvtif | Cvtfi -> K_unary
  | Fdiv -> K_fdiv
  | Fsqrt -> K_fsqrt
  | Dpadd -> K_dpadd
  | Sad -> K_sad
  | Hadd -> K_hadd
  | Cmp cond -> (
    match i.dst with Some (Flag f) -> K_cmp (cond, f) | _ -> K_bad "cmp dst")
  | Sel -> K_sel
  | Ld -> K_ld
  | St -> K_st
  | Gather -> K_gather
  | Scatter -> K_scatter
  | Sample -> K_sample
  | Br mode -> (
    match i.srcs with
    | [ Flag f; Imm target ] -> K_br (mode, f, Int32.to_int target)
    | _ -> K_bad "br operands")
  | Jmp -> (
    match i.srcs with
    | [ Imm target ] -> K_jmp (Int32.to_int target)
    | _ -> K_bad "jmp operands")
  | End -> K_end
  | Fence -> K_fence
  | Semacq -> (
    match i.srcs with [ Imm s ] -> K_semacq (Int32.to_int s) | _ -> K_bad "sem operands")
  | Semrel -> (
    match i.srcs with [ Imm s ] -> K_semrel (Int32.to_int s) | _ -> K_bad "sem operands")
  | Sendreg -> (
    match i.dst with
    | Some (Remote { shred_reg; reg }) -> K_sendreg (shred_reg, reg)
    | _ -> K_bad "sendreg dst")
  | Spawn -> (
    match i.srcs with
    | [ Imm target; Reg preg ] -> K_spawn (Int32.to_int target, preg)
    | _ -> K_bad "spawn operands")

let decode t (i : instr) =
  let width = i.width in
  let src n =
    match List.nth_opt i.srcs n with
    | Some op -> decode_src ~width op
    | None -> No_src "missing source operand"
  in
  let rdy_regs, rdy_flags = ready_sets i in
  let maddr =
    match i.op with
    | St | Scatter -> (match i.dst with Some d -> decode_maddr d | None -> No_maddr)
    | _ -> (match i.srcs with s :: _ -> decode_maddr s | [] -> No_maddr)
  in
  let lat =
    match i.op with
    | Mul | Mac | Fmac | Sad | Hadd -> lat_mul t
    | Fdiv | Dpadd -> lat_fdiv t
    | Fsqrt -> lat_fsqrt t
    | Cmp _ -> lat_cmp t
    | _ -> lat_alu t
  in
  {
    kind = decode_kind i;
    op = i.op;
    dtype = i.dtype;
    width;
    full = (1 lsl width) - 1;
    pred_flag = (match i.pred with Some p -> p.flag | None -> -1);
    pred_neg = (match i.pred with Some p -> p.negate | None -> false);
    s0 = src 0;
    s1 = src 1;
    dst = decode_dst ~width i.dst;
    maddr;
    rdy_regs;
    rdy_flags;
    ceh_eligible =
      (match i.op with
      | Nop | End | Br _ | Jmp | Fence | Semacq | Semrel -> false
      | _ -> true);
    issue = Exochi_isa.X3k_cost.issue_cycles i;
    lat;
  }

(* A device rebinds the same few programs batch after batch, so it
   decodes each once. Decoding depends only on the program and the
   device's fixed configuration. The cache is bounded: a device that
   binds many distinct programs keeps only the [decoded_cap] most
   recent. *)
let decoded_cap = 16

let decoded_code t prog =
  match t.decoded with
  | (p, code) :: _ when p == prog -> code
  | cached ->
    let code =
      match List.assq_opt prog cached with
      | Some code -> code
      | None -> Array.map (decode t) prog.instrs
    in
    t.decoded <-
      (prog, code)
      :: List.filteri (fun i (p, _) -> i < decoded_cap - 1 && p != prog) cached;
    code

let bind t ~prog ~surfaces =
  if Array.length surfaces < Array.length prog.surfaces then
    invalid_arg "Gpu.bind: surface table smaller than program slot table";
  t.binding <- Some { prog; surf_table = surfaces };
  t.code <- decoded_code t prog

(* One SIGNAL doorbell covers the whole batch: if the fault plan drops
   it, the shreds sit in shared memory ([parked]) but no EU ever polls
   them until the runtime re-rings the doorbell. *)
let enqueue t shreds =
  t.nshred <- t.nshred + List.length shreds;
  let lost =
    match t.cfg.fault_plan with
    | Some plan -> Fault_plan.decide plan Fault_plan.Lost_signal
    | None -> false
  in
  (match t.cfg.trace with
  | None -> ()
  | Some _ ->
    let ts = now_ps t in
    List.iter
      (fun s ->
        trace_emit t ~ts ~seq:Trace.Ia32
          (Trace.Shred_enqueue { shred_id = s.shred_id }))
      shreds;
    trace_emit t ~ts ~seq:Trace.Ia32
      (Trace.Signal_doorbell { shreds = List.length shreds; lost });
    if lost then
      trace_emit t ~ts ~seq:Trace.Ia32
        (Trace.Fault_injected { cls = "lost-signal" }));
  let q = if lost then t.parked else t.queue in
  List.iter (fun s -> Queue.add s q) shreds

(* Re-dispatch of already-counted shreds (recovery): the team size must
   not grow, and the recovery doorbell is assumed reliable. *)
let reenqueue t shreds = List.iter (fun s -> Queue.add s t.queue) shreds

let redeliver_doorbell t =
  let n = Queue.length t.parked in
  Queue.transfer t.parked t.queue;
  if n > 0 then
    trace_emit t ~ts:(now_ps t) ~seq:Trace.Ia32
      (Trace.Doorbell_redeliver { shreds = n });
  n

let parked_count t = Queue.length t.parked

let drain_queue t =
  let acc = ref [] in
  Queue.iter (fun s -> acc := s :: !acc) t.queue;
  Queue.iter (fun s -> acc := s :: !acc) t.parked;
  Queue.clear t.queue;
  Queue.clear t.parked;
  List.rev !acc

let queue_length t = Queue.length t.queue
let shreds_completed t = t.completed

let quiescent t =
  Queue.is_empty t.queue
  && Array.for_all
       (fun eu -> Array.for_all (fun c -> c.state = st_idle) eu.ctxs)
       t.eus

let advance_to_ps t ps =
  Array.iter (fun eu -> if eu.now < ps then eu.now <- ps) t.eus

let last_shred_done t = t.last_done
let operand_stall_ps t = t.operand_stall_ps
let instructions_retired t = t.retired
let thread_switches t = t.switches
let busy_cycles t = t.busy_cyc
let cycle_ps t = t.cycle
let hw_contexts t = t.cfg.eus * t.cfg.threads_per_eu
let sampler_requests t = t.sampler_reqs

let reset_counters t =
  t.retired <- 0;
  t.switches <- 0;
  t.busy_cyc <- 0;
  t.sampler_reqs <- 0;
  Cache.reset_stats t.cache;
  Tlb.reset_stats t.gtlb

let flush_cache t =
  let dirty = Cache.flush_all t.cache in
  let bytes = List.length dirty * Cache.line_bytes t.cache in
  if bytes > 0 then ignore (Bus.request t.bus ~now_ps:(now_ps t) ~bytes);
  bytes

(* ---- lanes ---- *)

let reg_lane ctx reg lane = ctx.vregs.((reg * 16) + lane)
let set_reg_lane ctx reg lane v = ctx.vregs.((reg * 16) + lane) <- v

(* Lane [j] of a source operand. *)
let src_lane t ctx src j =
  match src with
  | Lanes slots -> ctx.vregs.(slots.(j))
  | Const v -> v
  | Iota -> j
  | Shred_id -> (match ctx.shred with Some sh -> sh.shred_id | None -> 0)
  | Team_size -> t.nshred
  | Param n -> (
    match ctx.shred with
    | Some sh -> if n < Array.length sh.params then sh.params.(n) else 0
    | None -> 0)
  | Flag_bits f -> ctx.flags.(f)
  | No_src msg -> invalid_arg msg

(* Copy [width] lanes of a source into [buf]. *)
let load_src t ctx src ~width buf =
  match src with
  | Lanes slots ->
    for j = 0 to width - 1 do
      buf.(j) <- ctx.vregs.(slots.(j))
    done
  | Iota ->
    for j = 0 to width - 1 do
      buf.(j) <- j
    done
  | _ -> Array.fill buf 0 width (src_lane t ctx src 0)

let dst_lanes d = match d.dst with Dlanes (slots, _) -> slots | _ -> invalid_arg "write_lanes"

let mark_ready ctx d ~ready =
  match d.dst with
  | Dlanes (_, regs) ->
    for k = 0 to Array.length regs - 1 do
      let r = regs.(k) in
      if ready > ctx.reg_ready.(r) then ctx.reg_ready.(r) <- ready
    done
  | _ -> invalid_arg "write_lanes"

(* Write [res] to the destination lanes the predicate [mask] enables;
   every destination register becomes ready at [ready]. *)
let write_masked ctx d res ~mask ~ready =
  let slots = dst_lanes d in
  for j = 0 to d.width - 1 do
    if (mask lsr j) land 1 = 1 then ctx.vregs.(slots.(j)) <- res.(j)
  done;
  mark_ready ctx d ~ready

(* Predication mask for the current instruction: which lanes execute. *)
let pred_mask ctx d =
  if d.pred_flag < 0 then d.full
  else begin
    let m = ctx.flags.(d.pred_flag) in
    (if d.pred_neg then lnot m else m) land d.full
  end

(* ---- memory path ---- *)

(* Translate one page through the exo TLB. Returns the physical address,
   or -1 when an ATR proxy round trip was initiated ([t.replay_at] holds
   its completion) and the instruction must replay. *)
let translate_page t eu vaddr =
  let vpage = vaddr lsr Phys_mem.page_shift in
  let pte = Tlb.lookup t.gtlb ~vpage ~absent:Pte.X3k.absent in
  if Pte.X3k.valid pte then
    (Pte.X3k.frame pte lsl Phys_mem.page_shift)
    lor (vaddr land (Phys_mem.page_size - 1))
  else begin
    if tracing t then
      trace_emit t ~ts:eu.now
        ~seq:(Trace.Exo { eu = eu.eu_id; slot = eu.current })
        (Trace.Atr_tlb_miss { vpage });
    match t.hooks.atr ~vpage ~now_ps:eu.now with
    | Some pte, done_ps ->
      Tlb.insert t.gtlb ~vpage pte;
      t.replay_at <- done_ps;
      -1
    | None, _ ->
      let shred_id =
        match eu.ctxs.(eu.current).shred with
        | Some sh -> sh.shred_id
        | None -> -1
      in
      raise (Gpu_segfault { vaddr; vpage; shred_id })
  end

(* Translate every lane's element address into [ctx.paddrs]; returns
   false (with [t.replay_at] the latest ATR completion) if any lane
   missed. *)
let translate_all t eu ctx ~width =
  let stall = ref 0 in
  for k = 0 to width - 1 do
    let pa = translate_page t eu ctx.vaddrs.(k) in
    if pa >= 0 then ctx.paddrs.(k) <- pa
    else if t.replay_at > !stall then stall := t.replay_at
  done;
  t.replay_at <- !stall;
  !stall = 0

(* Timing for an access to a translated physical range: the outcomes
   of its lines are charged in address order. Returns the completion
   timestamp. *)
let timed_access t eu ~paddr ~bytes ~write =
  let extra = t.hooks.mem_delay ~paddr ~bytes ~write ~now_ps:eu.now in
  let start = eu.now + extra in
  let lb = Cache.line_bytes t.cache in
  let n = Cache.access_lines t.cache ~addr:paddr ~len:bytes ~write t.line_res in
  let hit_lat = 20 * t.cycle in
  let acc = ref (start + hit_lat) in
  for i = 0 to n - 1 do
    let r = t.line_res.(i) in
    if r <> Cache.hit then begin
      (* victim writebacks are posted *)
      if r >= 0 then ignore (Bus.request t.bus ~now_ps:start ~bytes:lb);
      (* a write miss is write-combined: no read-for-ownership fetch;
         the dirty line pays its transfer when written back *)
      if not write then begin
        let done_ps = Bus.request t.bus ~now_ps:start ~bytes:lb in
        if done_ps > !acc then acc := done_ps
      end
    end
  done;
  !acc

(* Functional element read/write through physical memory. *)
let read_elem t ~paddr ~dtype =
  match dtype with
  | B -> Phys_mem.read_u8 t.mem paddr
  | W -> Lane.wrap W (Phys_mem.read_u16 t.mem paddr)
  | DW | F -> Phys_mem.read_i32 t.mem paddr

let write_elem t ~paddr ~dtype v =
  match dtype with
  | B -> Phys_mem.write_u8 t.mem paddr v
  | W -> Phys_mem.write_u16 t.mem paddr v
  | DW | F -> Phys_mem.write_i32 t.mem paddr v

let surface t slot =
  match t.binding with
  | None -> invalid_arg "Gpu: no binding"
  | Some b ->
    if slot >= Array.length b.surf_table then invalid_arg "Gpu: surface slot";
    b.surf_table.(slot)

(* Element addresses of a surface access into [ctx.vaddrs]. 1-D [Surf]
   addressing treats the surface as a row-major element array (the
   element index is lane 0 of the index register, or each lane's own
   for a gather/scatter); [Surf2d] walks along a row. *)
let element_vaddrs t ctx d ~per_lane =
  match d.maddr with
  | Elem { slot; index; offset } ->
    let s = surface t slot in
    let base_idx = reg_lane ctx index 0 + offset in
    for k = 0 to d.width - 1 do
      let e = if per_lane then reg_lane ctx index k + offset else base_idx + k in
      let x = e mod s.Surface.width and y = e / s.Surface.width in
      ctx.vaddrs.(k) <- Surface.element_addr s ~x ~y
    done
  | Row { slot; xreg; yreg } when not per_lane ->
    let s = surface t slot in
    let x0 = reg_lane ctx xreg 0 and y = reg_lane ctx yreg 0 in
    for k = 0 to d.width - 1 do
      ctx.vaddrs.(k) <- Surface.element_addr s ~x:(x0 + k) ~y
    done
  | _ -> invalid_arg (if per_lane then "gather_vaddrs" else "element_vaddrs")

(* ---- semaphores ---- *)

let sem_release t sem =
  match t.sem_waiters.(sem) with
  | [] -> t.sem_held.(sem) <- false
  | (e, s) :: rest ->
    t.sem_waiters.(sem) <- rest;
    let ctx = t.eus.(e).ctxs.(s) in
    (* hand the semaphore to the waiter and wake it *)
    ctx.state <- st_stalled;
    ctx.resume <- t.eus.(e).now + (10 * t.cycle);
    ctx.sems_held <- sem :: ctx.sems_held;
    ctx.pc <- ctx.pc + 1 (* its semacq completes *)

(* ---- sampler ---- *)

(* The sampler's functional reads translate through the page table
   (setting the accessed bit; an unmapped page reads as 0). *)
let texel_paddr t va = Address_space.lookup t.aspace ~vaddr:va

let clampi lo hi x = if x < lo then lo else if x > hi then hi else x

(* Bilinear sample of a bpp=1 surface at Q16.16 texel coordinates. *)
(* 8-bit interpolation fractions: every intermediate fits in a signed
   32-bit register, so the software-emulated IA32 path can reproduce the
   fixed-function result exactly. *)
let sample_value t s ~u ~v =
  let xi = u asr 16 and yi = v asr 16 in
  let fx = (u asr 8) land 0xff and fy = (v asr 8) land 0xff in
  let texel x y =
    let x = clampi 0 (s.Surface.width - 1) x
    and y = clampi 0 (s.Surface.height - 1) y in
    let pa = texel_paddr t (Surface.element_addr s ~x ~y) in
    if pa < 0 then 0 else Phys_mem.read_u8 t.mem pa
  in
  let t00 = texel xi yi
  and t10 = texel (xi + 1) yi
  and t01 = texel xi (yi + 1)
  and t11 = texel (xi + 1) (yi + 1) in
  let top = (t00 lsl 8) + ((t10 - t00) * fx) in
  let bot = (t01 lsl 8) + ((t11 - t01) * fx) in
  ((top lsl 8) + ((bot - top) * fy) + 32768) asr 16

(* ---- ALU semantics ---- *)

let alu_result op dtype a b =
  match op with
  | Add -> Lane.add dtype a b
  | Sub -> Lane.sub dtype a b
  | Mul -> Lane.mul dtype a b
  | Min -> Lane.min_ dtype a b
  | Max -> Lane.max_ dtype a b
  | Avg -> Lane.avg dtype a b
  | Shl -> Lane.shl dtype a b
  | Shr -> Lane.shr dtype a b
  | Sar -> Lane.sar dtype a b
  | And -> Lane.and_ a b
  | Or -> Lane.or_ a b
  | Xor -> Lane.xor_ a b
  | Fadd -> Lane.fadd a b
  | Fsub -> Lane.fsub a b
  | Fmul -> Lane.fmul a b
  | Fmin -> Lane.fmin a b
  | Fmax -> Lane.fmax a b
  | _ -> invalid_arg "alu_result"

let unary_result op dtype a =
  match op with
  | Mov -> Lane.wrap dtype a
  | Abs -> Lane.abs_ dtype a
  | Not -> Lane.not_ dtype a
  | Sat -> Lane.saturate dtype a
  | Fabs -> Lane.fabs a
  | Cvtif -> Lane.cvtif a
  | Cvtfi -> Lane.cvtfi a
  | _ -> invalid_arg "unary_result"

(* ---- instruction execution ---- *)

(* The IA32 fallback translates under the OS: a miss is an ordinary page
   fault, not an ATR round trip. *)
let ia32_translate t ctx vaddr =
  try Address_space.translate t.aspace ~vaddr ~write:false
  with Address_space.Segfault _ ->
    raise
      (Gpu_segfault
         {
           vaddr;
           vpage = vaddr lsr Phys_mem.page_shift;
           shred_id = (match ctx.shred with Some sh -> sh.shred_id | None -> -1);
         })

(* Translate every lane's address into [ctx.paddrs]; [false] when the
   EU must replay behind an ATR round trip. *)
let translate_lanes t eu ctx ~width ~emu =
  if emu then begin
    for k = 0 to width - 1 do
      ctx.paddrs.(k) <- ia32_translate t ctx ctx.vaddrs.(k)
    done;
    true
  end
  else translate_all t eu ctx ~width

(* [exec] outcomes: a pc >= 0 is a taken branch; the details of a replay
   or a semaphore block are left in [t.replay_at] / [t.blocked_on]. *)
let advance = -1
let replay = -2
let finished = -3
let blocked = -4

(* One decoded instruction on [ctx], with the lane semantics the EUs and
   the IA32 fallback emulator share. With [emu] the instruction runs
   functionally on the IA32 sequencer instead: translation is the OS's
   (page faults, no ATR), nothing is timed, the CEH cases are plain IEEE
   arithmetic and semaphores/fences are no-ops (the EUs are paused). *)
let exec t eu ~slot ctx d ~emu =
  let width = d.width in
  let now = eu.now in
  let a = ctx.lane_a and bl = ctx.lane_b and res = ctx.lane_r in
  let mask = pred_mask ctx d in
  match d.kind with
  | K_nop -> advance
  | K_alu ->
    load_src t ctx d.s0 ~width a;
    load_src t ctx d.s1 ~width bl;
    for j = 0 to width - 1 do
      res.(j) <- alu_result d.op d.dtype a.(j) bl.(j)
    done;
    write_masked ctx d res ~mask ~ready:(now + d.lat);
    advance
  | K_mac ->
    load_src t ctx d.s0 ~width a;
    load_src t ctx d.s1 ~width bl;
    let slots = dst_lanes d in
    for j = 0 to width - 1 do
      let acc = ctx.vregs.(slots.(j)) in
      res.(j) <- Lane.add d.dtype acc (Lane.mul d.dtype a.(j) bl.(j))
    done;
    write_masked ctx d res ~mask ~ready:(now + d.lat);
    advance
  | K_fmac ->
    load_src t ctx d.s0 ~width a;
    load_src t ctx d.s1 ~width bl;
    let slots = dst_lanes d in
    for j = 0 to width - 1 do
      res.(j) <- Lane.fadd ctx.vregs.(slots.(j)) (Lane.fmul a.(j) bl.(j))
    done;
    write_masked ctx d res ~mask ~ready:(now + d.lat);
    advance
  | K_bcast ->
    Array.fill res 0 width (Lane.wrap d.dtype (src_lane t ctx d.s0 0));
    write_masked ctx d res ~mask ~ready:(now + d.lat);
    advance
  | K_unary ->
    load_src t ctx d.s0 ~width a;
    for j = 0 to width - 1 do
      res.(j) <- unary_result d.op d.dtype a.(j)
    done;
    write_masked ctx d res ~mask ~ready:(now + d.lat);
    advance
  | K_fdiv | K_fsqrt | K_dpadd ->
    load_src t ctx d.s0 ~width a;
    (match d.kind with
    | K_fsqrt -> Array.fill bl 0 width 0
    | _ -> load_src t ctx d.s1 ~width bl);
    (* the X3K faults on division by zero, on a negative square root and
       always on dpadd; the IA32 sequencer just computes the IEEE result *)
    let faulted = ref false in
    (match d.kind with
    | K_fdiv ->
      for j = 0 to width - 1 do
        if emu || not (Lane.fdiv_faults bl.(j)) then
          res.(j) <- Lane.fdiv_ieee a.(j) bl.(j)
        else faulted := true
      done
    | K_fsqrt ->
      for j = 0 to width - 1 do
        if emu || not (Lane.fsqrt_faults a.(j)) then
          res.(j) <- Lane.fsqrt_ieee a.(j)
        else faulted := true
      done
    | _ ->
      if emu then
        Array.blit
          (Lane.dpadd_pairs (Array.sub a 0 width) (Array.sub bl 0 width))
          0 res 0 width
      else faulted := true);
    if !faulted then begin
      (* collaborative exception handling: proxy the whole instruction
         to the IA32 sequencer *)
      let req =
        {
          fault_op = d.op;
          fault_dtype = d.dtype;
          lane_a = Array.sub a 0 width;
          lane_b = Array.sub bl 0 width;
        }
      in
      let emulated, done_ps = t.hooks.ceh req ~now_ps:now in
      if tracing t then
        trace_emit t ~ts:done_ps
          ~seq:(Trace.Exo { eu = eu.eu_id; slot })
          (Trace.Ceh_writeback { op = opcode_name d.op; lanes = width });
      write_masked ctx d emulated ~mask ~ready:done_ps;
      ctx.state <- st_stalled;
      ctx.resume <- done_ps;
      advance
    end
    else begin
      write_masked ctx d res ~mask ~ready:(now + d.lat);
      advance
    end
  | K_sad ->
    load_src t ctx d.s0 ~width a;
    load_src t ctx d.s1 ~width bl;
    let sum = ref 0 in
    for j = 0 to width - 1 do
      if (mask lsr j) land 1 = 1 then sum := !sum + abs (a.(j) - bl.(j))
    done;
    Array.fill res 0 width 0;
    res.(0) <- Lane.wrap32 !sum;
    write_masked ctx d res ~mask:d.full ~ready:(now + d.lat);
    advance
  | K_hadd ->
    load_src t ctx d.s0 ~width a;
    let sum = ref 0 in
    for j = 0 to width - 1 do
      if (mask lsr j) land 1 = 1 then sum := !sum + a.(j)
    done;
    Array.fill res 0 width 0;
    res.(0) <- Lane.wrap d.dtype !sum;
    write_masked ctx d res ~mask:d.full ~ready:(now + d.lat);
    advance
  | K_cmp (cond, f) ->
    load_src t ctx d.s0 ~width a;
    load_src t ctx d.s1 ~width bl;
    let m = ref 0 in
    for j = 0 to width - 1 do
      if Lane.compare_lanes d.dtype cond a.(j) bl.(j) then m := !m lor (1 lsl j)
    done;
    ctx.flags.(f) <- !m;
    ctx.flag_ready.(f) <- now + d.lat;
    advance
  | K_sel ->
    load_src t ctx d.s0 ~width a;
    load_src t ctx d.s1 ~width bl;
    for j = 0 to width - 1 do
      res.(j) <- (if (mask lsr j) land 1 = 1 then a.(j) else bl.(j))
    done;
    write_masked ctx d res ~mask:d.full ~ready:(now + d.lat);
    advance
  | K_ld ->
    element_vaddrs t ctx d ~per_lane:false;
    if not (translate_lanes t eu ctx ~width ~emu) then replay
    else begin
      let done_ps =
        if emu then now
        else
          timed_access t eu ~paddr:ctx.paddrs.(0)
            ~bytes:(width * dtype_bytes d.dtype) ~write:false
      in
      for k = 0 to width - 1 do
        res.(k) <- read_elem t ~paddr:ctx.paddrs.(k) ~dtype:d.dtype
      done;
      write_masked ctx d res ~mask ~ready:done_ps;
      advance
    end
  | K_st ->
    element_vaddrs t ctx d ~per_lane:false;
    if not (translate_lanes t eu ctx ~width ~emu) then replay
    else begin
      load_src t ctx d.s0 ~width a;
      if not emu then begin
        let done_ps =
          timed_access t eu ~paddr:ctx.paddrs.(0)
            ~bytes:(width * dtype_bytes d.dtype) ~write:true
        in
        ctx.store_done <- max ctx.store_done done_ps
      end;
      for k = 0 to width - 1 do
        if (mask lsr k) land 1 = 1 then
          write_elem t ~paddr:ctx.paddrs.(k) ~dtype:d.dtype a.(k)
      done;
      advance
    end
  | K_gather ->
    element_vaddrs t ctx d ~per_lane:true;
    if not (translate_lanes t eu ctx ~width ~emu) then replay
    else begin
      (* per-lane accesses: charge each distinct line *)
      let done_ps = ref now in
      if not emu then
        for k = 0 to width - 1 do
          done_ps :=
            max !done_ps
              (timed_access t eu ~paddr:ctx.paddrs.(k)
                 ~bytes:(dtype_bytes d.dtype) ~write:false)
        done;
      for k = 0 to width - 1 do
        res.(k) <- read_elem t ~paddr:ctx.paddrs.(k) ~dtype:d.dtype
      done;
      write_masked ctx d res ~mask ~ready:!done_ps;
      advance
    end
  | K_scatter ->
    element_vaddrs t ctx d ~per_lane:true;
    if not (translate_lanes t eu ctx ~width ~emu) then replay
    else begin
      load_src t ctx d.s0 ~width a;
      let done_ps = ref now in
      for k = 0 to width - 1 do
        if (mask lsr k) land 1 = 1 then begin
          if not emu then
            done_ps :=
              max !done_ps
                (timed_access t eu ~paddr:ctx.paddrs.(k)
                   ~bytes:(dtype_bytes d.dtype) ~write:true);
          write_elem t ~paddr:ctx.paddrs.(k) ~dtype:d.dtype a.(k)
        end
      done;
      if not emu then ctx.store_done <- max ctx.store_done !done_ps;
      advance
    end
  | K_sample -> (
    match d.maddr with
    | Row { slot; xreg; yreg } ->
      let s = surface t slot in
      if s.Surface.bpp <> 1 then invalid_arg "sample: only bpp=1 surfaces";
      (* the sampler translates through the same shared TLB; charge one
         translation for the footprint's first texel *)
      let u0 = reg_lane ctx xreg 0 and v0 = reg_lane ctx yreg 0 in
      let x0 = clampi 0 (s.Surface.width - 1) (u0 asr 16)
      and y0 = clampi 0 (s.Surface.height - 1) (v0 asr 16) in
      let va0 = Surface.element_addr s ~x:x0 ~y:y0 in
      let translated =
        if emu then begin
          ignore (ia32_translate t ctx va0);
          true
        end
        else translate_page t eu va0 >= 0
      in
      if not translated then replay
      else begin
        let done_ps =
          if emu then now
          else begin
            t.sampler_reqs <- t.sampler_reqs + 1;
            let start = max now t.sampler_busy in
            (* throughput: ~2 cycles/lane (four texel fetches + filter
               per lane); latency: 24 cycles *)
            let occupy = width * 2 * t.cycle in
            t.sampler_busy <- start + occupy;
            (* sampler reads 4 texels/lane through the shared cache *)
            let mem_done = ref start in
            for k = 0 to width - 1 do
              let x = clampi 0 (s.Surface.width - 1) (reg_lane ctx xreg k asr 16)
              and y = clampi 0 (s.Surface.height - 1) (reg_lane ctx yreg k asr 16) in
              let pa = texel_paddr t (Surface.element_addr s ~x ~y) in
              if pa >= 0 then
                mem_done :=
                  max !mem_done (timed_access t eu ~paddr:pa ~bytes:4 ~write:false)
            done;
            max (!mem_done + (24 * t.cycle)) (start + occupy)
          end
        in
        for k = 0 to width - 1 do
          res.(k) <- sample_value t s ~u:(reg_lane ctx xreg k) ~v:(reg_lane ctx yreg k)
        done;
        write_masked ctx d res ~mask ~ready:done_ps;
        advance
      end
    | _ -> invalid_arg "sample operand")
  | K_br (mode, f, target) ->
    let m = ctx.flags.(f) land d.full in
    let taken =
      match mode with Any -> m <> 0 | All -> m = d.full | None_set -> m = 0
    in
    if taken then target else advance
  | K_jmp target -> target
  | K_end -> finished
  | K_fence ->
    if (not emu) && ctx.store_done > now then begin
      t.replay_at <- ctx.store_done;
      replay
    end
    else advance
  | K_semacq s ->
    if emu then advance
    else if t.sem_held.(s) then begin
      t.blocked_on <- s;
      blocked
    end
    else begin
      t.sem_held.(s) <- true;
      ctx.sems_held <- s :: ctx.sems_held;
      advance
    end
  | K_semrel s ->
    if not emu then begin
      ctx.sems_held <- List.filter (fun x -> x <> s) ctx.sems_held;
      sem_release t s
    end;
    advance
  | K_sendreg (shred_reg, reg) ->
    let target_sid = reg_lane ctx shred_reg 0 in
    load_src t ctx d.s0 ~width a;
    let delivered = ref false in
    Array.iter
      (fun e ->
        Array.iter
          (fun c ->
            match c.shred with
            | Some sh when sh.shred_id = target_sid && not !delivered ->
              delivered := true;
              for j = 0 to width - 1 do
                set_reg_lane c reg j a.(j)
              done;
              if not emu then
                c.reg_ready.(reg) <- max c.reg_ready.(reg) (now + (10 * t.cycle))
            | _ -> ())
          e.ctxs)
      t.eus;
    if not !delivered then begin
      let cell =
        match Hashtbl.find_opt t.pending_regs target_sid with
        | Some c -> c
        | None ->
          let c = ref [] in
          Hashtbl.replace t.pending_regs target_sid c;
          c
      in
      cell := (reg, Array.sub a 0 width) :: !cell
    end;
    advance
  | K_spawn (target, preg) ->
    t.spawn_counter <- t.spawn_counter + 1;
    let params = Array.init 8 (fun j -> reg_lane ctx preg j) in
    Queue.add
      { shred_id = 1_000_000 + t.spawn_counter; entry = target; params }
      t.queue;
    t.nshred <- t.nshred + 1;
    advance
  | K_bad msg -> invalid_arg msg

(* An EU issuing [ctx]'s next instruction: the scoreboard and injected
   spurious CEH traps can hold it back before it executes. *)
let exec_eu t eu slot =
  let ctx = eu.ctxs.(slot) in
  let d = t.code.(ctx.pc) in
  let ready_needed = ref 0 in
  for k = 0 to Array.length d.rdy_regs - 1 do
    let r = ctx.reg_ready.(d.rdy_regs.(k)) in
    if r > !ready_needed then ready_needed := r
  done;
  for k = 0 to Array.length d.rdy_flags - 1 do
    let r = ctx.flag_ready.(d.rdy_flags.(k)) in
    if r > !ready_needed then ready_needed := r
  done;
  if !ready_needed > eu.now then begin
    t.operand_stall_ps <- t.operand_stall_ps + (!ready_needed - eu.now);
    t.replay_at <- !ready_needed;
    replay
  end
  else if
    d.ceh_eligible
    &&
    match t.cfg.fault_plan with
    | None -> false
    | Some plan -> Fault_plan.decide plan Fault_plan.Ceh_spurious
  then begin
    (* injected spurious CEH trap: the IA32 handler finds nothing to
       emulate and resumes the shred, which replays the instruction *)
    trace_emit t ~ts:eu.now
      ~seq:(Trace.Exo { eu = eu.eu_id; slot })
      (Trace.Fault_injected { cls = "ceh-spurious" });
    t.replay_at <- t.hooks.ceh_spurious ~now_ps:eu.now;
    replay
  end
  else exec t eu ~slot ctx d ~emu:false

(* ---- dispatch ---- *)

let apply_pending_regs t ctx shred_id =
  match Hashtbl.find_opt t.pending_regs shred_id with
  | Some cell ->
    List.iter
      (fun (reg, lanes) -> Array.iteri (fun j v -> set_reg_lane ctx reg j v) lanes)
      !cell;
    Hashtbl.remove t.pending_regs shred_id
  | None -> ()

let dispatch t eu slot shred =
  let ctx = eu.ctxs.(slot) in
  ctx.shred <- Some shred;
  ctx.pc <- shred.entry;
  Array.fill ctx.reg_ready 0 128 0;
  Array.fill ctx.flag_ready 0 4 0;
  Array.fill ctx.flags 0 4 0;
  ctx.store_done <- 0;
  (* apply register writes sent before the shred became resident *)
  apply_pending_regs t ctx shred.shred_id;
  ctx.started <- eu.now;
  let hang =
    match t.cfg.fault_plan with
    | Some plan -> Fault_plan.decide plan Fault_plan.Shred_hang
    | None -> false
  in
  let start = eu.now + (t.cfg.dispatch_cycles * t.cycle) in
  if tracing t then begin
    let seq = Trace.Exo { eu = eu.eu_id; slot } in
    trace_emit t ~ts:eu.now ~seq
      (Trace.Shred_dispatch { shred_id = shred.shred_id });
    if hang then
      trace_emit t ~ts:eu.now ~seq (Trace.Fault_injected { cls = "shred-hang" })
    else
      trace_emit t ~ts:start ~seq (Trace.Shred_start { shred_id = shred.shred_id })
  end;
  if hang then
    (* the EU wedges before retiring anything: no architectural state of
       the shred changes, so a re-dispatch restarts it from scratch *)
    ctx.state <- st_hung
  else begin
    ctx.state <- st_stalled;
    ctx.resume <- start
  end

(* Refresh stalled contexts whose resume time has passed; fill idle
   contexts from the queue. *)
let refresh t eu =
  for slot = 0 to Array.length eu.ctxs - 1 do
    let ctx = eu.ctxs.(slot) in
    if ctx.state = st_stalled && ctx.resume <= eu.now then ctx.state <- st_ready;
    if ctx.state = st_idle && (not ctx.disabled) && not (Queue.is_empty t.queue)
    then dispatch t eu slot (Queue.pop t.queue)
  done

(* Next ready context after the current one, round-robin, or -1. *)
let rotate eu =
  let n = Array.length eu.ctxs in
  let found = ref (-1) in
  for k = 1 to n - 1 do
    let c = (eu.current + k) mod n in
    if !found < 0 && eu.ctxs.(c).state = st_ready then found := c
  done;
  !found

(* Pick the context to issue from, or -1. Switch-on-stall: keep the
   current context while it is ready; otherwise rotate to the next ready
   one. *)
let pick t eu =
  (* fairness quantum: even without a stall, rotate after a burst so a
     busy-spinning shred cannot starve its EU siblings *)
  let quantum_expired = t.cfg.switch_on_stall && eu.streak >= 64 in
  let current_ready = eu.ctxs.(eu.current).state = st_ready in
  if current_ready && not quantum_expired then eu.current
  else if t.cfg.switch_on_stall then begin
    eu.streak <- 0;
    let c = rotate eu in
    if c >= 0 then c else if current_ready then eu.current else -1
  end
  else if eu.ctxs.(eu.current).state = st_idle then
    (* without fine-grained multithreading the EU only leaves a context
       when its shred retires (coarse-grained switching) *)
    rotate eu
  else -1

(* Earliest stall resume on this EU, or [max_int]. *)
let next_event eu =
  let ps = ref max_int in
  for slot = 0 to Array.length eu.ctxs - 1 do
    let ctx = eu.ctxs.(slot) in
    if ctx.state = st_stalled && ctx.resume < !ps then ps := ctx.resume
  done;
  !ps

let has_free_slot eu =
  let free = ref false in
  for slot = 0 to Array.length eu.ctxs - 1 do
    let c = eu.ctxs.(slot) in
    if c.state = st_idle && not c.disabled then free := true
  done;
  !free

(* Cancel every copy of a hedged shred except the winner: clear other
   resident contexts and purge queued duplicates. Safe mid-race because
   hedged copies are pure functions of their (identical) params — any
   stores the losing copy already performed wrote the same values the
   winner writes. A cancelled Hung copy bumps the slot's fail count: the
   wedge was real even though the watchdog never had to fire. *)
let cancel_hedge_copies t shred_id ~except_eu ~except_slot =
  Array.iter
    (fun eu ->
      Array.iteri
        (fun slot ctx ->
          match ctx.shred with
          | Some sh
            when sh.shred_id = shred_id
                 && not (eu.eu_id = except_eu && slot = except_slot) ->
            List.iter (fun s -> sem_release t s) ctx.sems_held;
            ctx.sems_held <- [];
            if ctx.state = st_hung then ctx.fails <- ctx.fails + 1;
            ctx.shred <- None;
            ctx.state <- st_idle
          | _ -> ())
        eu.ctxs)
    t.eus;
  let purge q =
    let keep = Queue.create () in
    Queue.iter (fun s -> if s.shred_id <> shred_id then Queue.add s keep) q;
    Queue.clear q;
    Queue.transfer keep q
  in
  purge t.queue;
  purge t.parked

let finish_shred t eu slot =
  let ctx = eu.ctxs.(slot) in
  (match ctx.shred with
  | Some sh ->
    ctx.completions <- ctx.completions + 1;
    let suppressed =
      if Hashtbl.length t.hedged = 0 then false
      else
        match Hashtbl.find_opt t.hedged sh.shred_id with
        | Some e when e.won -> true (* a sibling copy already won the race *)
        | Some e ->
          e.won <- true;
          t.hedge_wins_ <- t.hedge_wins_ + 1;
          trace_emit t ~ts:eu.now
            ~seq:(Trace.Exo { eu = eu.eu_id; slot })
            (Trace.Hedge_win { shred_id = sh.shred_id });
          cancel_hedge_copies t sh.shred_id ~except_eu:eu.eu_id
            ~except_slot:slot;
          Hashtbl.remove t.hedged sh.shred_id;
          false
        | None -> false
    in
    if not suppressed then begin
      t.completed <- t.completed + 1;
      t.last_done <- max t.last_done eu.now;
      if tracing t then
        trace_emit t ~ts:ctx.started
          ~dur:(max 0 (eu.now - ctx.started))
          ~seq:(Trace.Exo { eu = eu.eu_id; slot })
          (Trace.Shred_run { shred_id = sh.shred_id });
      t.hooks.on_shred_done sh ~now_ps:eu.now
    end
  | None -> ());
  ctx.shred <- None;
  ctx.fails <- 0;
  ctx.sems_held <- [];
  ctx.state <- st_idle

let step_eu t eu target_ps =
  let retired_here = ref 0 in
  let continue_ = ref true in
  while !continue_ && eu.now < target_ps do
    refresh t eu;
    let slot = pick t eu in
    if slot < 0 then begin
      (* nothing ready: jump to the next event or the slice end *)
      let ps = next_event eu in
      if ps < target_ps then eu.now <- max eu.now ps
      else if (not (Queue.is_empty t.queue)) && has_free_slot eu then refresh t eu
      else begin
        eu.now <- target_ps;
        continue_ := false
      end
    end
    else begin
      (* fly-weight switch-on-stall: no pipeline bubble *)
      if slot <> eu.current then begin
        t.switches <- t.switches + 1;
        eu.streak <- 0
      end;
      eu.streak <- eu.streak + 1;
      eu.current <- slot;
      let ctx = eu.ctxs.(slot) in
      let pc0 = ctx.pc in
      let cycles = t.code.(pc0).issue in
      let r = exec_eu t eu slot in
      if r = advance || r >= 0 then begin
        (* a taken branch pays the redirect penalty *)
        let cycles = if r >= 0 then cycles + 2 else cycles in
        ctx.pc <- (if r >= 0 then r else ctx.pc + 1);
        t.retired <- t.retired + 1;
        incr retired_here;
        t.busy_cyc <- t.busy_cyc + cycles;
        eu.now <- eu.now + (cycles * t.cycle);
        match (t.prof, t.binding) with
        | Some f, Some b -> f ~prog:b.prog ~pc:pc0 ~cost_ps:(cycles * t.cycle)
        | _ -> ()
      end
      else if r = replay then begin
        ctx.state <- st_stalled;
        ctx.resume <- max t.replay_at (eu.now + t.cycle)
      end
      else if r = finished then begin
        t.retired <- t.retired + 1;
        incr retired_here;
        eu.now <- eu.now + t.cycle;
        finish_shred t eu slot
      end
      else begin
        let s = t.blocked_on in
        ctx.state <- st_wait_sem;
        t.sem_waiters.(s) <- t.sem_waiters.(s) @ [ (eu.eu_id, slot) ]
      end
    end
  done;
  !retired_here

(* EUs are stepped one at a time, but they contend for the shared bus
   whose arbiter state ([busy_until]) is global. Stepping one EU far ahead
   of the others would make the laggards' requests queue behind traffic
   from the "future", serialising the machine -- so a run is chopped into
   short synchronisation slices. *)
let sync_slice_ps = 250_000 (* 250 ns *)

let run_until t target_ps =
  let retired = ref 0 in
  let floor_now =
    Array.fold_left (fun acc eu -> min acc eu.now) max_int t.eus
  in
  let slice = ref (min target_ps (floor_now + sync_slice_ps)) in
  let continue_ = ref true in
  while !continue_ do
    for e = 0 to Array.length t.eus - 1 do
      retired := !retired + step_eu t t.eus.(e) !slice
    done;
    if !slice >= target_ps then continue_ := false
    else slice := min target_ps (!slice + sync_slice_ps)
  done;
  !retired

let run_to_quiescence t =
  let quantum = 200_000_000 (* 200 us *) in
  let stuck_rounds = ref 0 in
  while not (quiescent t) do
    let target = now_ps t + quantum in
    let retired = run_until t target in
    if retired = 0 then begin
      incr stuck_rounds;
      if !stuck_rounds > 3 then begin
        let waiting =
          Array.exists
            (fun eu ->
              Array.exists
                (fun c -> c.state = st_wait_sem)
                eu.ctxs)
            t.eus
        in
        raise
          (Stuck
             (if waiting then "semaphore deadlock"
              else "no progress on any EU"))
      end
    end
    else stuck_rounds := 0
  done;
  t.last_done

let peek_reg t ~shred_id ~reg ~lane =
  let found = ref None in
  Array.iter
    (fun eu ->
      Array.iter
        (fun c ->
          match c.shred with
          | Some sh when sh.shred_id = shred_id && !found = None ->
            found := Some (reg_lane c reg lane)
          | _ -> ())
        eu.ctxs)
    t.eus;
  !found

let resident t =
  let acc = ref [] in
  Array.iter
    (fun eu ->
      Array.iteri
        (fun slot c ->
          match c.shred with
          | Some sh -> acc := (eu.eu_id, slot, sh.shred_id, c.pc) :: !acc
          | None -> ())
        eu.ctxs)
    t.eus;
  List.rev !acc

(* ---- recovery interface (driven by the supervising CHI runtime) ---- *)

let reap_overdue t ~watchdog_ps =
  let reaped = ref [] in
  Array.iter
    (fun eu ->
      Array.iteri
        (fun slot ctx ->
          match ctx.shred with
          | Some sh when ctx.state = st_hung && eu.now - ctx.started >= watchdog_ps ->
            (* hangs strike before the first instruction retires, so the
               shred has no architectural effects to undo; release any
               semaphores the slot held and free it *)
            List.iter (fun s -> sem_release t s) ctx.sems_held;
            ctx.sems_held <- [];
            ctx.shred <- None;
            ctx.state <- st_idle;
            ctx.fails <- ctx.fails + 1;
            trace_emit t ~ts:eu.now
              ~seq:(Trace.Exo { eu = eu.eu_id; slot })
              (Trace.Watchdog_reap { shred_id = sh.shred_id; fails = ctx.fails });
            reaped := (eu.eu_id, slot, sh, ctx.fails) :: !reaped
          | _ -> ())
        eu.ctxs)
    t.eus;
  List.rev !reaped

let quarantine t ~eu ~slot =
  trace_emit t ~ts:(now_ps t) ~seq:(Trace.Exo { eu; slot }) Trace.Quarantine;
  t.eus.(eu).ctxs.(slot).disabled <- true

let active_slots t =
  Array.fold_left
    (fun acc eu ->
      Array.fold_left (fun a c -> if c.disabled then a else a + 1) acc eu.ctxs)
    0 t.eus

let reinstate t ~eu ~slot =
  let ctx = t.eus.(eu).ctxs.(slot) in
  ctx.disabled <- false;
  ctx.fails <- 0

let slot_completions t ~eu ~slot = t.eus.(eu).ctxs.(slot).completions

(* ---- hedged re-dispatch ---- *)

let overdue_shreds t ~age_ps =
  let acc = ref [] in
  Array.iter
    (fun eu ->
      Array.iter
        (fun ctx ->
          match ctx.shred with
          | Some sh
            when ctx.state = st_hung
                 && eu.now - ctx.started >= age_ps
                 && not (Hashtbl.mem t.hedged sh.shred_id) ->
            acc := (sh, eu.now - ctx.started) :: !acc
          | _ -> ())
        eu.ctxs)
    t.eus;
  List.rev !acc

let hedge t sh =
  if Hashtbl.mem t.hedged sh.shred_id then false
  else begin
    Hashtbl.replace t.hedged sh.shred_id { won = false };
    (* backup copy of an already-counted shred: reenqueue semantics —
       the team size must not grow, and the hedge doorbell is reliable *)
    Queue.add sh t.queue;
    true
  end

let hedge_pending t ~shred_id = Hashtbl.mem t.hedged shred_id

let hedge_live_copies t ~shred_id =
  let n = ref 0 in
  Array.iter
    (fun eu ->
      Array.iter
        (fun c ->
          match c.shred with
          | Some sh when sh.shred_id = shred_id -> incr n
          | _ -> ())
        eu.ctxs)
    t.eus;
  let count q =
    Queue.iter (fun (s : shred) -> if s.shred_id = shred_id then incr n) q
  in
  count t.queue;
  count t.parked;
  !n

(* Drop the race entry without declaring a winner — used when the
   runtime resolves the shred outside the GPU (IA32 fallback), so the
   dead entry cannot hijack a later team's reused shred id. *)
let hedge_resolve t ~shred_id = Hashtbl.remove t.hedged shred_id
let hedge_wins t = t.hedge_wins_

(* ---- whole-shred IA32 fallback emulation ----

   Proxy-executes one shred functionally on the IA32 sequencer: the
   decoded instructions run through [exec] in its IA32 mode, so the lane
   semantics are the EUs' own (graceful degradation: slower, never
   wrong). Runs on a scratch context with no timing model — the caller
   charges CPU time from the returned instruction/lane counts. Runs at a
   point where the EUs are paused, so semaphores degenerate to no-ops:
   the emulated shred is atomic with respect to the team. *)

let emulate_shred t sh =
  (match t.binding with
  | None -> invalid_arg "Gpu.emulate_shred: no binding"
  | Some _ -> ());
  let ctx =
    match t.emu_ctx with
    | Some c -> c
    | None ->
      let c = mk_ctx () in
      t.emu_ctx <- Some c;
      c
  in
  Array.fill ctx.vregs 0 (Array.length ctx.vregs) 0;
  Array.fill ctx.flags 0 4 0;
  ctx.shred <- Some sh;
  ctx.pc <- sh.entry;
  apply_pending_regs t ctx sh.shred_id;
  let eu = { eu_id = -1; ctxs = [||]; now = 0; current = 0; streak = 0 } in
  let instrs = ref 0 and lane_ops = ref 0 in
  let running = ref true in
  let fuel = ref 10_000_000 in
  while !running do
    decr fuel;
    if !fuel <= 0 then
      raise (Stuck "IA32 fallback emulation: shred did not terminate");
    let d = t.code.(ctx.pc) in
    incr instrs;
    lane_ops := !lane_ops + d.width;
    let r = exec t eu ~slot:0 ctx d ~emu:true in
    if r = finished then running := false
    else ctx.pc <- (if r >= 0 then r else ctx.pc + 1)
  done;
  ctx.shred <- None;
  (!instrs, !lane_ops)
