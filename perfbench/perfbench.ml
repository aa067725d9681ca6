(* The repository benchmark: three fixed workloads over the EXOCHI stack,
   timed on the host clock, with the simulated clock's statistics hashed
   into a digest. See README.md for the workloads, the metrics and the
   layer -> end-to-end map. *)

open Exochi_kernels
module S = Exochi_serving
module O = Exochi_obs
module P = Exochi_core.Exo_platform
module RT = Exochi_core.Chi_runtime
module D = Exochi_core.Chi_descriptor
module AS = Exochi_memory.Address_space
module Surface = Exochi_memory.Surface
module Image = Exochi_media.Image
module Machine = Exochi_cpu.Machine
module Gpu = Exochi_accel.Gpu
module Prng = Exochi_util.Prng
module Fault_plan = Exochi_faults.Fault_plan
module Opt = Exochi_opt.Opt
module X3k_asm = Exochi_isa.X3k_asm
module Via32_asm = Exochi_isa.Via32_asm
module Finding = Exochi_analysis.Finding
module Bound = Exochi_analysis.Bound
module Exo_check = Exochi_analysis.Exo_check

let now = Unix.gettimeofday

(* ---- spans ---- *)

(* A span brackets one call into a layer's public function. Spans are
   kept in memory and written out when the run ends; with tracing off
   [span] only calls its argument. *)
type span = {
  id : int;
  name : string;
  parent : int; (* -1 at the root *)
  t0 : float;
  mutable t1 : float;
  w0 : float; (* minor words allocated before / after *)
  mutable w1 : float;
}

let tracing = ref false
let spans : span list ref = ref []
let stack : int list ref = ref []
let next_id = ref 0

let reset_spans () =
  spans := [];
  stack := [];
  next_id := 0

let span name f =
  if not !tracing then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    let s =
      {
        id; name; parent; t0 = now (); t1 = nan;
        w0 = Gc.minor_words (); w1 = nan;
      }
    in
    stack := id :: !stack;
    Fun.protect
      ~finally:(fun () ->
        s.t1 <- now ();
        s.w1 <- Gc.minor_words ();
        stack := List.tl !stack;
        spans := s :: !spans)
      f
  end

let named name = List.filter (fun s -> s.name = name) !spans
let total f name = List.fold_left (fun a s -> a +. f s) 0.0 (named name)
let total_s = total (fun s -> s.t1 -. s.t0)
let total_words = total (fun s -> s.w1 -. s.w0)

let spans_json () =
  let module J = O.Tiny_json in
  let base = List.fold_left (fun m s -> Float.min m s.t0) infinity !spans in
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let d = s.t1 -. s.t0 in
      Hashtbl.replace children s.parent
        (d +. Option.value (Hashtbl.find_opt children s.parent) ~default:0.0))
    !spans;
  let one s =
    let dur = s.t1 -. s.t0 in
    let kids = Option.value (Hashtbl.find_opt children s.id) ~default:0.0 in
    J.Obj
      [
        ("id", J.Num (float_of_int s.id));
        ("name", J.Str s.name);
        ("parent", J.Num (float_of_int s.parent));
        ("start_us", J.Num ((s.t0 -. base) *. 1e6));
        ("dur_us", J.Num (dur *. 1e6));
        ("self_us", J.Num ((dur -. kids) *. 1e6));
        ("minor_words", J.Num (s.w1 -. s.w0));
      ]
  in
  J.to_string (J.Arr (List.rev_map one !spans))

(* ---- shared helpers ---- *)

let median xs =
  match List.sort compare xs with
  | [] -> nan
  | s ->
    let n = List.length s in
    if n mod 2 = 1 then List.nth s (n / 2)
    else (List.nth s ((n / 2) - 1) +. List.nth s (n / 2)) /. 2.0

(* nearest-rank percentile *)
let percentile p xs =
  match List.sort compare xs with
  | [] -> nan
  | s ->
    let n = List.length s in
    let k = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    List.nth s (max 0 (min (n - 1) (k - 1)))

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* ---- the reference clock ---- *)

(* This host's speed drifts by tens of percent within seconds (turbo and
   co-tenant load), more than any bound worth gating. An untraced run
   therefore also times a fixed loop that shares no code with the
   program, from SIGALRM every [sample_period] seconds and at the end of
   each timed phase; each stretch of the phase is rescaled by the loop's
   nominal time over its time measured just after the stretch. The
   loop's own time is left out of both clocks. The handler allocates
   nothing, so the program's heap evolves exactly as without it. *)
let sample_period = 0.02
let reference_nominal_s = 0.0005
let ref_table = Array.make 65536 0

(* Unix.gettimeofday's own primitives, declared unboxed so that reading
   the clock in the handler allocates nothing *)
external clock_s : unit -> (float[@unboxed])
  = "caml_unix_gettimeofday" "caml_unix_gettimeofday_unboxed"
[@@noalloc]

let reference_loop () =
  let acc = ref 0 in
  for i = 0 to 150_000 do
    let j = i * 7919 land 65535 in
    ref_table.(j) <- ref_table.(j) + i;
    acc := !acc + ref_table.(j * 31 land 65535)
  done;
  ignore (Sys.opaque_identity !acc)

(* start of the current stretch; host seconds and reference seconds *)
let clocks = Float.Array.make 3 0.0
let active = ref false
let busy = ref false

let sample () =
  if !active && not !busy then begin
    busy := true;
    let t = clock_s () in
    reference_loop ();
    let t' = clock_s () in
    let stretch = t -. Float.Array.get clocks 0 in
    Float.Array.set clocks 1 (Float.Array.get clocks 1 +. stretch);
    Float.Array.set clocks 2
      (Float.Array.get clocks 2
      +. (stretch *. reference_nominal_s /. (t' -. t)));
    Float.Array.set clocks 0 (clock_s ());
    busy := false
  end

let set_timer period =
  ignore
    (Unix.setitimer Unix.ITIMER_REAL
       { Unix.it_interval = period; it_value = period })

(* [clocked f] is [f ()] with its host seconds and its seconds at the
   reference speed *)
let clocked f =
  Float.Array.fill clocks 0 3 0.0;
  Float.Array.set clocks 0 (clock_s ());
  active := true;
  Sys.set_signal Sys.sigalrm (Sys.Signal_handle (fun _ -> sample ()));
  set_timer sample_period;
  let r =
    Fun.protect
      ~finally:(fun () ->
        set_timer 0.0;
        sample ();
        active := false)
      f
  in
  (r, Float.Array.get clocks 1, Float.Array.get clocks 2)

let count_lines s =
  let n = String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 0 s in
  if String.length s > 0 && s.[String.length s - 1] <> '\n' then n + 1 else n

(* The seed reaches the program only through the inputs generated from
   it: kernel pixels, the job schedule and the fault schedule. *)
let input_seed seed = Int64.logxor (Int64.of_int seed) 0x5DEECE66DL
let fault_seed seed = Int64.logxor (Int64.of_int seed) 0x2545F4914F6CDD1DL

let peak_rss_mb () =
  (* VmHWM is the resident-set high-water mark of this process *)
  match open_in "/proc/self/status" with
  | exception Sys_error _ ->
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1048576.0
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> nan
      | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
            float_of_int kb /. 1024.0)
      | _ -> scan ()
    in
    let v = scan () in
    close_in ic;
    v

(* ---- what a workload reports ---- *)

(* a metric's unit is declared once, in the name tables below *)
type metric = string * float

let m name (v : float) : metric = (name, v)

type pass = {
  ops : int; (* operations attempted in the pass *)
  failed : int;
  digest : string; (* hash of every simulated statistic of the pass *)
  figures : metric list; (* workload figures, printed beside the metrics *)
}

type result = {
  correct : bool;
  attempted : int;
  failed_ops : int;
  metrics : (string * string * float) list; (* name, unit, value *)
  digest : string;
  notes : string list; (* why [correct] is false, when it is *)
}

let digest_of buf = Digest.to_hex (Digest.string (Buffer.contents buf))

(* ===================================================================
   fig7-suite: the ten Table 2 kernels, once on the X3K exo-sequencers
   and once on IA32, as in the paper's Fig. 7.
   =================================================================== *)

(* video kernels run a fixed reduced length; FMD needs at least 3 frames
   (image kernels ignore the frame count) *)
let fig7_frames = 3

(* paper-reported Fig. 7 speedups, the same table bench/main.ml prints *)
let paper_fig7 =
  [
    ("LinearFilter", 5.5); ("SepiaTone", 4.2); ("FGT", 2.8);
    ("Bicubic", 10.97); ("Kalman", 6.2); ("FMD", 3.5); ("AlphaBlend", 8.5);
    ("BOB", 1.41); ("ADVDI", 7.5); ("ProcAmp", 4.6);
  ]

let fig7_kernels ~tiny =
  if tiny then
    List.filter (fun (k : Kernel.t) -> k.abbrev = "FMD" || k.abbrev = "Kalman")
      Registry.all
  else Registry.all

let result_line (k : Kernel.t) side (r : Harness.result) =
  Printf.sprintf
    "%s/%s time=%d ok=%b diff=%d gi=%d ci=%d fl=%d cp=%d atr=%d gtt=%d ceh=%d \
     sh=%d sw=%d pv=%d cb=%d gb=%d inj=%d re=%d q=%d fb=%d rec=%d fat=%d\n"
    k.abbrev side r.time_ps r.correct r.max_diff r.gpu_instrs r.cpu_instrs
    r.flush_bytes r.copy_bytes r.atr_proxies r.gtt_hits r.ceh_proxies r.shreds
    r.thread_switches r.protocol_violations r.cpu_busy_ps r.gpu_busy_ps
    r.faults_injected r.retries r.quarantined_seqs r.fallback_shreds
    r.recovered_faults r.fatal_faults

(* Harness.run (CC-shared, one device, -O0, no faults) made of the same
   public calls, so that each layer can be timed. It must reproduce
   Harness.run's simulated statistics exactly; the digest comparison in
   the traced run checks that it does. *)
let traced_kernel_run ~seed ~split (k : Kernel.t) =
  let io =
    span "kernels.make_io" (fun () ->
        k.make_io ~frames:fig7_frames (Prng.create seed) Kernel.Small)
  in
  let platform =
    P.create ~memmodel:Exochi_memory.Memmodel.Cc_shared ~devices:1 ()
  in
  let flush_policy = if k.band_ordered then None else Some RT.Upfront in
  let rt = RT.create ~platform ?flush_policy () in
  let cpu = P.cpu platform and gpu = P.gpu platform in
  let aspace = P.aspace platform in
  let mk_desc name width height mode =
    let bpp =
      Option.value (List.assoc_opt ("bpp:" ^ name) io.Kernel.meta) ~default:1
    in
    let pitch = Surface.required_pitch ~width ~bpp ~tiling:Surface.Linear in
    let bytes = pitch * height in
    let base = AS.alloc aspace ~name ~bytes ~align:64 in
    let rec touch off =
      if off < bytes then begin
        ignore (AS.fault_in aspace ~vaddr:(base + off));
        touch (off + Exochi_memory.Phys_mem.page_size)
      end
    in
    touch 0;
    D.alloc platform ~name ~base ~width ~height ~bpp ~mode ()
  in
  let inputs =
    List.map
      (fun (name, img) ->
        let d = mk_desc name img.Image.width img.Image.height D.Input in
        Image.store aspace img ~surface:d.D.surface;
        (name, d))
      io.Kernel.inputs
  in
  let outputs =
    List.map (fun (name, w, h) -> (name, mk_desc name w h D.Output))
      io.Kernel.outputs
  in
  let golden = span "kernels.golden" (fun () -> k.golden io) in
  List.iter (fun (_, d) -> RT.produce rt d) inputs;
  let descs = inputs @ outputs in
  let t0 = Machine.now_ps cpu in
  let cpu_busy = ref 0 in
  (match split with
  | Harness.All_gpu ->
    let prog =
      span "isa.assemble" (fun () ->
          Opt.optimize Opt.O0
            (X3k_asm.assemble_exn ~name:k.abbrev (k.x3k_asm io)))
    in
    span "core.team" (fun () ->
        let team =
          RT.parallel rt ~prog ~descriptors:(List.map snd descs)
            ~num_threads:io.Kernel.units ~params:(k.unit_params io)
            ~master_nowait:false ()
        in
        RT.wait rt team)
  | Harness.All_cpu ->
    let units = io.Kernel.units in
    let prog =
      span "isa.assemble" (fun () ->
          Via32_asm.assemble_exn ~name:k.abbrev
            (k.via32_asm io ~lo:0 ~hi:units))
    in
    let pool = k.cpool io in
    let pool_base =
      AS.alloc aspace ~name:"CPOOL" ~bytes:(max 16 (4 * Array.length pool))
        ~align:64
    in
    Array.iteri (fun i v -> AS.write_u32 aspace (pool_base + (4 * i)) v) pool;
    let symbols =
      ("CPOOL", pool_base)
      :: List.map (fun (name, d) -> (name, d.D.surface.Surface.base)) descs
    in
    let stack = AS.alloc aspace ~name:"stack" ~bytes:65536 ~align:4096 in
    Machine.set_reg cpu Exochi_isa.Via32_ast.ESP
      (Int32.of_int (stack + 65536 - 16));
    let loaded = Machine.load_program prog ~symbols in
    let c0 = Machine.now_ps cpu in
    span "cpu.run" (fun () ->
        match
          Machine.run cpu loaded ~entry:0 ~intrinsics:(fun name _ ->
              failwith ("unexpected intrinsic " ^ name))
        with
        | Machine.Halted | Machine.Ret_to_host -> ()
        | Machine.Fuel_exhausted -> failwith "CPU kernel ran out of fuel"
        | Machine.Paused _ -> assert false);
    cpu_busy := Machine.now_ps cpu - c0
  | _ -> invalid_arg "traced_kernel_run: All_gpu or All_cpu only");
  let t1 = Machine.now_ps cpu in
  P.emit_mem_counters platform;
  let correct, max_diff =
    span "media.validate" (fun () ->
        List.fold_left
          (fun (ok, worst) (name, expected) ->
            match List.assoc_opt name outputs with
            | None -> (false, worst)
            | Some d ->
              let got = Image.load aspace ~surface:d.D.surface in
              let diff = Image.max_abs_diff expected got in
              (ok && diff = 0, max worst diff))
          (true, 0) golden)
  in
  let recovery = RT.recovery rt in
  {
    Harness.time_ps = t1 - t0; correct; max_diff;
    gpu_instrs = Gpu.instructions_retired gpu;
    cpu_instrs = Machine.instructions_retired cpu;
    flush_bytes = RT.last_flush_bytes rt; copy_bytes = RT.last_copy_bytes rt;
    atr_proxies = P.atr_proxies platform; gtt_hits = P.gtt_hits platform;
    ceh_proxies = P.ceh_proxies platform; shreds = Gpu.shreds_completed gpu;
    thread_switches = Gpu.thread_switches gpu;
    protocol_violations = P.protocol_violations platform;
    cpu_busy_ps = !cpu_busy;
    gpu_busy_ps =
      Gpu.busy_cycles gpu * Exochi_util.Timebase.ps_per_cycle (Gpu.clock gpu);
    (* no fault plan is installed *)
    faults_injected = 0;
    retries =
      recovery.RT.redispatches + recovery.RT.doorbell_redeliveries
      + P.atr_transient_retries platform;
    quarantined_seqs = recovery.RT.quarantined_seqs;
    fallback_shreds = recovery.RT.fallback_shreds;
    recovered_faults = max 0 (-recovery.RT.fatal);
    fatal_faults = recovery.RT.fatal;
  }

(* one operation = one kernel on one sequencer kind *)
let fig7_op ~traced ~seed k split =
  if traced then span "fig7.op" (fun () -> traced_kernel_run ~seed ~split k)
  else
    Harness.run ~seed ~frames:fig7_frames ~split k Kernel.Small

let fig7_err_pct speedups =
  (* geomean of |ln(ours / paper)|, as a percentage error *)
  match speedups with
  | [] -> 0.0
  | _ ->
    let logs =
      List.map
        (fun (abbrev, s) -> Float.abs (log (s /. List.assoc abbrev paper_fig7)))
        speedups
    in
    100.0
    *. (exp (List.fold_left ( +. ) 0.0 logs /. float_of_int (List.length logs))
       -. 1.0)

(* per-kernel (x3k, ia32) results of the last pass *)
let fig7_last : (Kernel.t * Harness.result * Harness.result) list ref = ref []

let fig7_pass ~tiny ~traced ~seed () =
  let buf = Buffer.create 4096 in
  let failed = ref 0 and ops = ref 0 in
  let rows =
    List.map
      (fun (k : Kernel.t) ->
        let op side split =
          let r = fig7_op ~traced ~seed k split in
          incr ops;
          if not r.Harness.correct then incr failed;
          Buffer.add_string buf (result_line k side r);
          r
        in
        let g = op "x3k" Harness.All_gpu in
        let c = op "ia32" Harness.All_cpu in
        (k, g, c))
      (fig7_kernels ~tiny)
  in
  fig7_last := rows;
  let speedups =
    List.map
      (fun ((k : Kernel.t), (g : Harness.result), (c : Harness.result)) ->
        (k.abbrev, float_of_int c.time_ps /. float_of_int g.time_ps))
      rows
  in
  {
    ops = !ops;
    failed = !failed;
    digest = digest_of buf;
    figures = [ m "fig7_err_pct" (fig7_err_pct speedups) ];
  }

(* ===================================================================
   serve-guarded: open-loop multi-tenant traffic through the whole
   serving stack — two devices, -O2, deadlines with static admission,
   a low-rate fault plan, the guard and the Live tap.
   =================================================================== *)

(* Calibrated once with this configuration: a closed loop of 16 clients
   per tenant saturates at about 34,000 simulated jobs/s, so 20,000
   jobs/s is ~0.6x capacity — loaded, without a growing backlog. *)
let serve_rate_jps = 20_000.0
let serve_jobs ~tiny = if tiny then 40 else 1_000
let serve_mix = [ ("SepiaTone", 3.0); ("LinearFilter", 2.0); ("Kalman", 0.5) ]
let serve_fault_rate = 1e-4

let serve_config ~guard =
  {
    S.Server.default_config with
    (* the exochi_serve --guard defaults *)
    guard = (if guard then Some { S.Server.g_audit_frac = 0.05 } else None);
    hedge_after_ps = 300_000_000;
    breaker_cooldown_ps = 2_000_000_000;
    static_admission = true;
    opt_level = Opt.O2;
    devices = 2;
    placement = S.Placement.Least_loaded;
    frames = Some fig7_frames;
  }

let serve_workload ~tiny ~seed =
  S.Workload.create
    {
      (S.Workload.default_spec ~seed:(input_seed seed) ~tenants:2
         ~jobs:(serve_jobs ~tiny)
         (S.Workload.Open { rate_jps = serve_rate_jps }))
      with
      mix = serve_mix;
      deadline_slack_ps = Some 5_000_000_000 (* 5 ms *);
    }

type served = {
  server : S.Server.t;
  sink : O.Trace.sink;
  live : O.Live.t;
}

let serve_setup ~guard ~seed () =
  let fault_plan =
    Fault_plan.create ~seed:(fault_seed seed)
      ~rates:(Fault_plan.uniform_rates serve_fault_rate) ()
  in
  let sink = O.Trace.create () in
  let live = O.Live.create () in
  O.Live.attach live sink;
  let server =
    S.Server.create ~config:(serve_config ~guard) ~fault_plan ~trace:sink ()
  in
  span "serve.prepare" (fun () ->
      S.Server.prepare server (List.map fst serve_mix));
  { server; sink; live }

(* host seconds of each serve-loop cycle of the last traced pass *)
let serve_cycles : float list ref = ref []

(* Server.run's loop made of the same public calls, so that submit and
   each cycle can be timed; its statistics must equal Server.run's. *)
let traced_serve server wl =
  S.Server.prepare server (S.Workload.kernels wl);
  S.Workload.start wl ~now_ps:(S.Server.now_ps server);
  let clock () = S.Server.now_ps server in
  let on_done j = S.Workload.on_complete wl j ~now_ps:(clock ()) in
  let on_shed j = S.Workload.on_shed wl j ~now_ps:(clock ()) in
  let rec admit_due () =
    match S.Workload.peek_time wl with
    | Some at when at <= S.Server.now_ps server -> (
      match S.Workload.pop wl with
      | None -> ()
      | Some j ->
        (match span "serve.submit" (fun () -> S.Server.submit server j) with
        | Ok () -> ()
        | Error _ -> on_shed j);
        admit_due ())
    | _ -> ()
  in
  let cycles = ref [] in
  let running = ref true in
  while !running do
    let c0 = now () in
    admit_due ();
    (if S.Server.queue_depth server > 0 then
       ignore
         (span "serve.dispatch" (fun () ->
              S.Server.dispatch_cycle server ~on_done ~on_shed ()))
     else
       match S.Workload.peek_time wl with
       | Some at ->
         let n = S.Server.now_ps server in
         if at > n then
           Machine.add_time_ps (P.cpu (S.Server.platform server)) (at - n)
       | None -> running := false);
    cycles := (now () -. c0) :: !cycles
  done;
  serve_cycles := !cycles;
  S.Server.stats server

let serve_pass ~tiny ~traced ~seed (sv : served) =
  let wl = serve_workload ~tiny ~seed in
  let st =
    if traced then span "serve.run" (fun () -> traced_serve sv.server wl)
    else S.Server.run sv.server wl
  in
  let r = st.S.Server_stats.recovery in
  let jobs = serve_jobs ~tiny in
  (* refused, shed and unfinished jobs fail; so do silent corruptions the
     guard missed and faults recovery could not absorb *)
  let failed =
    jobs - st.S.Server_stats.completed
    + max 0 (r.S.Server_stats.r_sdc_corrupted - r.S.Server_stats.r_sdc_detected)
    + r.S.Server_stats.r_fatal
  in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (S.Server_stats.to_json st);
  ( {
      ops = jobs;
      failed;
      digest = digest_of buf;
      figures =
        [
          m "sim_goodput_jps" st.S.Server_stats.goodput_jps;
          m "sim_lat_p50_us" (st.S.Server_stats.lat_p50_ps /. 1e6);
          m "sim_lat_p99_us" (st.S.Server_stats.lat_p99_ps /. 1e6);
        ];
    },
    st )

(* ===================================================================
   toolchain: every kernel's X3K and VIA32 source through assemble,
   binary round trip, Exo-check, Exo-bound and Exo-opt -O2, and the
   CHI-lite examples through the compiler. Nothing is simulated.
   =================================================================== *)

type source = {
  k : Kernel.t;
  x3k_src : string;
  via_src : string;
  env : int -> (int * int) option; (* launch-parameter ranges *)
}

type tool_inputs = { kernels : source list; chi : (string * string) list }

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let chi_examples ~root =
  let dir = Filename.concat root "examples" in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".chi")
  |> List.sort compare
  |> List.map (fun f -> (f, read_file (Filename.concat dir f)))

let tool_setup ~chi ~tiny ~seed () =
  let kernels =
    List.map
      (fun (k : Kernel.t) ->
        let io =
          span "kernels.make_io" (fun () ->
              k.make_io ~frames:fig7_frames (Prng.create (input_seed seed))
                Kernel.Small)
        in
        (* the interval env Exo-bound evaluates symbolic trips under:
           per-parameter min/max over every unit's launch vector *)
        let p0 = k.unit_params io 0 in
        let lo = Array.copy p0 and hi = Array.copy p0 in
        for u = 1 to io.Kernel.units - 1 do
          Array.iteri
            (fun i v ->
              if v < lo.(i) then lo.(i) <- v;
              if v > hi.(i) then hi.(i) <- v)
            (k.unit_params io u)
        done;
        let env i =
          if i >= 0 && i < Array.length lo then Some (lo.(i), hi.(i)) else None
        in
        {
          k;
          x3k_src = k.x3k_asm io;
          via_src = k.via32_asm io ~lo:0 ~hi:io.Kernel.units;
          env;
        })
      (fig7_kernels ~tiny)
  in
  { kernels; chi }

let tool_lines (ti : tool_inputs) =
  let asm =
    List.fold_left
      (fun a s -> a + count_lines s.x3k_src + count_lines s.via_src)
      0 ti.kernels
  in
  let chi = List.fold_left (fun a (_, src) -> a + count_lines src) 0 ti.chi in
  (asm, chi)

let tool_pass ~ti () =
  let buf = Buffer.create 4096 in
  let failed = ref 0 in
  let fail what =
    incr failed;
    Buffer.add_string buf ("FAIL " ^ what ^ "\n")
  in
  List.iter
    (fun s ->
      let name = s.k.Kernel.abbrev in
      match
        span "isa.assemble" (fun () ->
            ( X3k_asm.assemble ~name:(name ^ ".x3k") s.x3k_src,
              Via32_asm.assemble ~name:(name ^ ".s") s.via_src ))
      with
      | Error e, _ | _, Error e ->
        fail (name ^ " assemble: " ^ Exochi_isa.Loc.error_to_string e)
      | Ok xp, Ok vp ->
        let x_rt, v_rt =
          span "isa.roundtrip" (fun () ->
              ( (match X3k_asm.of_binary ~name (X3k_asm.to_binary xp) with
                | Ok p ->
                  p.Exochi_isa.X3k_ast.instrs = xp.Exochi_isa.X3k_ast.instrs
                  && p.surfaces = xp.surfaces
                | Error _ -> false),
                match Via32_asm.of_binary ~name (Via32_asm.to_binary vp) with
                | Ok p ->
                  p.Exochi_isa.Via32_ast.instrs = vp.Exochi_isa.Via32_ast.instrs
                | Error _ -> false ))
        in
        if not x_rt then fail (name ^ ".x3k binary round trip");
        if not v_rt then fail (name ^ ".s binary round trip");
        let x_find, v_find =
          span "analysis.check" (fun () ->
              (Exo_check.check_x3k xp, Exo_check.check_via32 vp))
        in
        if Finding.has_errors x_find then fail (name ^ ".x3k error finding");
        if Finding.has_errors v_find then fail (name ^ ".s error finding");
        let xb, vb =
          span "analysis.bound" (fun () ->
              (Bound.analyze_x3k ~env:s.env xp, Bound.analyze_via32 vp))
        in
        if xb.Bound.verdict = Bound.Unbounded then
          fail (name ^ ".x3k unbounded");
        if vb.Bound.verdict = Bound.Unbounded then fail (name ^ ".s unbounded");
        let o2 = span "opt.o2" (fun () -> Opt.optimize Opt.O2 xp) in
        (match Exochi_isa.X3k_check.check o2 with
        | Ok _ -> ()
        | Error _ -> fail (name ^ " -O2 program fails X3k_check"));
        Buffer.add_string buf
          (Printf.sprintf "%s x3k=%d via=%d xf=%d vf=%d xb=%s vb=%s o2=%s\n"
             name
             (Array.length xp.Exochi_isa.X3k_ast.instrs)
             (Array.length vp.Exochi_isa.Via32_ast.instrs)
             (List.length x_find) (List.length v_find)
             (Bound.verdict_to_string xb.Bound.verdict)
             (Bound.verdict_to_string vb.Bound.verdict)
             (Digest.to_hex (Digest.string (X3k_asm.disassemble o2)))))
    ti.kernels;
  List.iter
    (fun (file, src) ->
      match
        span "core.chilite" (fun () ->
            Exochi_core.Chilite_compile.compile ~name:file src)
      with
      | Ok c ->
        Buffer.add_string buf
          (Printf.sprintf "%s sections=%d\n" file
             (List.length c.Exochi_core.Chilite_compile.sections))
      | Error e -> fail (file ^ ": " ^ Exochi_isa.Loc.error_to_string e))
    ti.chi;
  {
    ops = (2 * List.length ti.kernels) + List.length ti.chi;
    failed = !failed;
    digest = digest_of buf;
    figures = [];
  }


(* ===================================================================
   The runner
   =================================================================== *)

let workloads = [ "fig7-suite"; "serve-guarded"; "toolchain" ]

(* every end-to-end metric, in BENCHMARK.json order *)
let end_to_end_units =
  [
    ("setup_s", "s"); ("wall_s", "s"); ("host_ops_per_s", "1/s");
    ("peak_rss_mb", "MB");
  ]

(* every per-layer metric, in BENCHMARK.json order; a layer the workload
   does not exercise reads 0 *)
let per_layer_units =
  [
    ("accel.instrs", "count"); ("accel.ns_per_instr", "ns");
    ("accel.words_per_instr", "words"); ("cpu.instrs", "count");
    ("cpu.ns_per_instr", "ns"); ("cpu.words_per_instr", "words");
    ("core.team_s", "s"); ("memory.atr_proxies", "count");
    ("memory.gtt_hits", "count"); ("memory.flush_bytes", "bytes");
    ("kernels.make_io_s", "s"); ("kernels.golden_s", "s");
    ("media.validate_s", "s"); ("isa.assemble_s", "s");
  ]
  @ List.map (fun (k, _) -> ("sim.speedup." ^ k, "x")) paper_fig7
  @ [
      ("sim.x3k_ms", "ms"); ("sim.ia32_ms", "ms"); ("fig7_err_pct", "%");
      ("sim_mips", "M/s"); ("serve.prepare_s", "s"); ("serve.submit_us", "us");
      ("serve.cycle_ms_p50", "ms"); ("serve.cycle_ms_p99", "ms");
      ("obs.events", "count"); ("obs.render_ms", "ms");
      ("serve.batches", "count"); ("serve.jobs_per_batch", "jobs");
    ]
  @ List.map
      (fun r -> ("serve.shed." ^ r, "count"))
      [
        "unknown-kernel"; "queue-full"; "inflight"; "deadline";
        "infeasible-deadline"; "fatal-fault";
      ]
  @ [
      ("host_jobs_per_s", "jobs/s"); ("sim_goodput_jps", "jobs/s");
      ("sim_lat_p50_us", "us"); ("sim_lat_p99_us", "us");
      ("guard.audit_shreds", "count"); ("guard.sdc_corrupted", "count");
      ("guard.sdc_detected", "count"); ("guard.hedges", "count");
      ("faults.injected", "count"); ("faults.fatal", "count");
      ("guard.host_share", "%"); ("fabric.shreds.dev0", "count");
      ("fabric.shreds.dev1", "count"); ("lines_per_s", "lines/s");
      ("isa.asm_lines_per_s", "lines/s");
      ("isa.roundtrip_lines_per_s", "lines/s");
      ("analysis.check_lines_per_s", "lines/s");
      ("analysis.bound_lines_per_s", "lines/s");
      ("opt.o2_ms_per_program", "ms"); ("core.chilite_lines_per_s", "lines/s");
      ("gc.minor_words", "words"); ("gc.major_collections", "count");
      ("gc.top_heap_mb", "MB"); ("trace.overhead_pct", "%");
    ]

(* printed beside the metrics of an untraced run: the host clock's own
   reading of the two gated times *)
let host_clock_units = [ ("host_setup_s", "s"); ("host_wall_s", "s") ]

let unit_of name =
  match
    List.assoc_opt name (end_to_end_units @ per_layer_units @ host_clock_units)
  with
  | Some u -> u
  | None -> "?"

let setup_reps ~tiny = if tiny then 1 else 3
let per_s n s = if s > 0.0 then n /. s else 0.0
let durations name = List.map (fun s -> s.t1 -. s.t0) (named name)

type measured = {
  setup_s : float; (* at the reference speed *)
  setup_raw_s : float;
  passes : pass list;
  times : float list; (* per pass, at the reference speed *)
  raw_times : float list;
  gc : metric list; (* per pass, set-ups between passes included *)
}

(* Measure whole passes until [seconds] have gone by and at least
   [min_passes] are done, but no more than [max_passes]. With [fresh]
   every pass sets up anew; otherwise all passes reuse the product of
   the last set-up. Either way a run sets up at least [setup_reps]
   times. Traced runs time with the host clock alone. *)
let measure ~tiny ~seconds ~min_passes ~max_passes ~fresh ~setup ~pass =
  let clock f =
    if !tracing then
      let r, dt = timed f in
      (r, dt, dt)
    else clocked f
  in
  let setups = ref [] in
  let timed_setup () =
    let s, raw, scaled = clock setup in
    setups := (raw, scaled) :: !setups;
    s
  in
  let ready = ref None in
  let leading =
    if fresh then setup_reps ~tiny - min_passes else setup_reps ~tiny
  in
  for _ = 1 to leading do
    ready := Some (timed_setup ())
  done;
  if fresh then ready := None;
  let passes = ref [] and times = ref [] in
  let g0 = Gc.quick_stat () in
  let t_start = now () in
  let rec loop n =
    let s = match !ready with Some s -> s | None -> timed_setup () in
    if fresh then ready := None;
    let p, raw, scaled = clock (fun () -> pass s) in
    passes := p :: !passes;
    times := (raw, scaled) :: !times;
    if
      n < max_passes
      && (n < min_passes || now () -. t_start < float_of_int seconds)
    then loop (n + 1)
  in
  loop 1;
  let g1 = Gc.quick_stat () in
  let n = float_of_int (List.length !passes) in
  {
    setup_s = median (List.map snd !setups);
    setup_raw_s = median (List.map fst !setups);
    passes = List.rev !passes;
    times = List.map snd !times;
    raw_times = List.map fst !times;
    gc =
      [
        m "gc.minor_words" ((g1.Gc.minor_words -. g0.Gc.minor_words) /. n);
        m "gc.major_collections"
          (float_of_int (g1.Gc.major_collections - g0.Gc.major_collections)
          /. n);
        m "gc.top_heap_mb"
          (float_of_int (g1.Gc.top_heap_words * (Sys.word_size / 8))
          /. 1048576.0);
      ];
  }


(* what a workload adds beyond its passes: per-layer metrics (traced
   runs only) and reasons the run is not correct *)
type outcome = { ms : measured; layers : metric list; notes : string list }

let interpreter ~instrs ~span_name prefix =
  let n = float_of_int instrs in
  let per x = if instrs > 0 then x /. n else 0.0 in
  [
    m (prefix ^ ".instrs") n;
    m (prefix ^ ".ns_per_instr") (per (total_s span_name *. 1e9));
    m (prefix ^ ".words_per_instr") (per (total_words span_name));
  ]

(* [rerun ~traced f] is [f ()] and its seconds at the reference speed,
   with tracing on or off; the spans it records are dropped. Traced runs
   compare such reruns to measure what tracing costs. *)
let rerun ~traced f =
  let kept = !spans in
  tracing := traced;
  let r, _, scaled = clocked f in
  tracing := true;
  spans := kept;
  (r, scaled)

let overhead_pct ~plain ~traced = 100.0 *. (traced -. plain) /. plain

let run_fig7 ~tiny ~seconds ~traced ~seed =
  let iseed = input_seed seed in
  (* set-up: the suite's inputs and reference outputs, built from the
     seed (the harness builds its own copy inside each operation) *)
  let setup () =
    List.iter
      (fun (k : Kernel.t) ->
        let io =
          k.make_io ~frames:fig7_frames (Prng.create iseed) Kernel.Small
        in
        ignore (k.golden io))
      (fig7_kernels ~tiny)
  in
  let ms =
    measure ~tiny ~seconds ~min_passes:1
      ~max_passes:(if tiny || traced then 1 else max_int)
      ~fresh:false ~setup
      ~pass:(fun () -> fig7_pass ~tiny ~traced ~seed:iseed ())
  in
  if not traced then { ms; layers = []; notes = [] }
  else begin
    let rows = !fig7_last in
    let sum f = float_of_int (List.fold_left (fun a r -> a + f r) 0 rows) in
    let gi = sum (fun (_, g, _) -> g.gpu_instrs) in
    let ci = sum (fun (_, _, c) -> c.cpu_instrs) in
    let layers =
      interpreter ~instrs:(int_of_float gi) ~span_name:"core.team" "accel"
      @ interpreter ~instrs:(int_of_float ci) ~span_name:"cpu.run" "cpu"
      @ [
          m "core.team_s" (total_s "core.team");
          m "memory.atr_proxies"
            (sum (fun (_, g, c) -> g.atr_proxies + c.atr_proxies));
          m "memory.gtt_hits" (sum (fun (_, g, c) -> g.gtt_hits + c.gtt_hits));
          m "memory.flush_bytes"
            (sum (fun (_, g, c) -> g.flush_bytes + c.flush_bytes));
          m "kernels.make_io_s" (total_s "kernels.make_io");
          m "kernels.golden_s" (total_s "kernels.golden");
          m "media.validate_s" (total_s "media.validate");
          m "isa.assemble_s" (total_s "isa.assemble");
          m "sim.x3k_ms" (sum (fun (_, g, _) -> g.time_ps) /. 1e9);
          m "sim.ia32_ms" (sum (fun (_, _, c) -> c.time_ps) /. 1e9);
          m "sim_mips" (per_s (gi +. ci) (median ms.times) /. 1e6);
        ]
      @ List.map
          (fun ((k : Kernel.t), (g : Harness.result), (c : Harness.result)) ->
            m ("sim.speedup." ^ k.abbrev)
              (float_of_int c.time_ps /. float_of_int g.time_ps))
          rows
    in
    (* tracing cost: the suite's X3K side once more, each kernel through
       the untraced harness and then the traced replica, which must
       reproduce the harness's results exactly. Bicubic and ProcAmp, the
       two longest, are left out to keep a traced run near two minutes. *)
    let plain = ref 0.0 and spanned = ref 0.0 and mismatched = ref [] in
    List.iter
      (fun ((k : Kernel.t), g, _) ->
        let r, dt =
          rerun ~traced:false (fun () ->
              fig7_op ~traced:false ~seed:iseed k Harness.All_gpu)
        in
        if r <> g then mismatched := k :: !mismatched;
        plain := !plain +. dt;
        let _, dt =
          rerun ~traced:true (fun () ->
              fig7_op ~traced:true ~seed:iseed k Harness.All_gpu)
        in
        spanned := !spanned +. dt)
      (List.filter
         (fun ((k : Kernel.t), _, _) ->
           k.abbrev <> "Bicubic" && k.abbrev <> "ProcAmp")
         rows);
    let overhead = overhead_pct ~plain:!plain ~traced:!spanned in
    {
      ms;
      layers = m "trace.overhead_pct" overhead :: layers;
      notes =
        List.map
          (fun (k : Kernel.t) ->
            k.abbrev ^ ": traced harness differs from Harness.run")
          !mismatched;
    }
  end

let run_serve ~tiny ~seconds ~traced ~seed =
  let last = ref None in
  let pass sv =
    let p, st = serve_pass ~tiny ~traced ~seed sv in
    last := Some (sv, st);
    p
  in
  let ms =
    measure ~tiny ~seconds ~min_passes:1
      ~max_passes:(if tiny || traced then 1 else max_int)
      ~fresh:true ~setup:(serve_setup ~guard:true ~seed) ~pass
  in
  if not traced then { ms; layers = []; notes = [] }
  else begin
    let sv, st = Option.get !last in
    let pass_s = median ms.times in
    let (), render_s =
      timed (fun () ->
          ignore (O.Metrics.render (O.Metrics.of_sink sv.sink));
          ignore (S.Server_stats.render st))
    in
    let platform = S.Server.platform sv.server in
    let devs = List.init (P.devices platform) (P.gpu_dev platform) in
    let shreds d =
      match List.nth_opt devs d with
      | Some g -> float_of_int (Gpu.shreds_completed g)
      | None -> 0.0
    in
    let gi =
      List.fold_left (fun a g -> a + Gpu.instructions_retired g) 0 devs
    in
    let ci = Machine.instructions_retired (P.cpu platform) in
    let cycles_ms = List.map (fun s -> s *. 1e3) !serve_cycles in
    (* the same schedule again on fresh servers: untraced, traced twice
       and untraced with the guard on (the cost of tracing, and a check
       that the traced loop equals Server.run), then with the guard off
       (the guard's share) *)
    let schedule ~guard ~traced run =
      let sv, _ = rerun ~traced:false (serve_setup ~guard ~seed) in
      rerun ~traced (fun () -> run sv.server (serve_workload ~tiny ~seed))
    in
    let st_on, on_s = schedule ~guard:true ~traced:false S.Server.run in
    let _, traced_1 = schedule ~guard:true ~traced:true traced_serve in
    let _, traced_2 = schedule ~guard:true ~traced:true traced_serve in
    let _, on_2 = schedule ~guard:true ~traced:false S.Server.run in
    let _, off_s = schedule ~guard:false ~traced:false S.Server.run in
    let r = st.S.Server_stats.recovery in
    let count n = float_of_int n in
    let layers =
      interpreter ~instrs:gi ~span_name:"serve.dispatch" "accel"
      @ [
          m "cpu.instrs" (count ci);
          m "serve.prepare_s" (median (durations "serve.prepare"));
          m "serve.submit_us"
            (1e6 *. total_s "serve.submit"
            /. float_of_int (max 1 (List.length (named "serve.submit"))));
          m "serve.cycle_ms_p50" (percentile 50.0 cycles_ms);
          m "serve.cycle_ms_p99" (percentile 99.0 cycles_ms);
          m "obs.events" (count (O.Live.events sv.live));
          m "obs.render_ms" (render_s *. 1e3);
          m "serve.batches" (count st.S.Server_stats.batches);
          m "serve.jobs_per_batch" st.S.Server_stats.batch_jobs_mean;
          m "guard.audit_shreds" (count r.S.Server_stats.r_audit_shreds);
          m "guard.sdc_corrupted" (count r.S.Server_stats.r_sdc_corrupted);
          m "guard.sdc_detected" (count r.S.Server_stats.r_sdc_detected);
          m "guard.hedges" (count r.S.Server_stats.r_hedges);
          m "faults.injected" (count r.S.Server_stats.r_faults_injected);
          m "faults.fatal" (count r.S.Server_stats.r_fatal);
          m "guard.host_share" (100.0 *. (on_2 -. off_s) /. on_2);
          m "fabric.shreds.dev0" (shreds 0);
          m "fabric.shreds.dev1" (shreds 1);
          m "sim_mips" (per_s (float_of_int (gi + ci)) pass_s /. 1e6);
          m "host_jobs_per_s"
            (per_s (float_of_int (serve_jobs ~tiny)) pass_s);
          m "trace.overhead_pct"
            (overhead_pct ~plain:(on_s +. on_2) ~traced:(traced_1 +. traced_2));
        ]
      @ List.map
          (fun (reason, n) -> m ("serve.shed." ^ reason) (count n))
          st.S.Server_stats.sheds
    in
    {
      ms;
      layers;
      notes =
        (if S.Server_stats.to_json st_on <> S.Server_stats.to_json st then
           [ "traced serve loop differs from Server.run" ]
         else []);
    }
  end

let run_toolchain ~root ~tiny ~seconds ~traced ~seed =
  let inputs = ref None in
  let pass ti =
    inputs := Some ti;
    tool_pass ~ti ()
  in
  let ms =
    measure ~tiny ~seconds ~min_passes:1
      ~max_passes:(if tiny then 1 else max_int)
      ~fresh:false ~setup:(tool_setup ~chi:(chi_examples ~root) ~tiny ~seed)
      ~pass
  in
  let ti = Option.get !inputs in
  let asm_lines, chi_lines = tool_lines ti in
  let lines = float_of_int (asm_lines + chi_lines) in
  (* lines_per_s is a figure of every run, traced or not *)
  let figure = m "lines_per_s" (per_s lines (median ms.times)) in
  let ms =
    {
      ms with
      passes = List.map (fun p -> { p with figures = [ figure ] }) ms.passes;
    }
  in
  if not traced then { ms; layers = []; notes = [] }
  else begin
    let npass = float_of_int (List.length ms.passes) in
    let rate name l = per_s (float_of_int l *. npass) (total_s name) in
    let layers =
      [
        m "isa.asm_lines_per_s" (rate "isa.assemble" asm_lines);
        m "isa.roundtrip_lines_per_s" (rate "isa.roundtrip" asm_lines);
        m "analysis.check_lines_per_s" (rate "analysis.check" asm_lines);
        m "analysis.bound_lines_per_s" (rate "analysis.bound" asm_lines);
        m "opt.o2_ms_per_program"
          (1e3 *. total_s "opt.o2"
          /. float_of_int (max 1 (List.length (named "opt.o2"))));
        m "core.chilite_lines_per_s" (rate "core.chilite" chi_lines);
        m "kernels.make_io_s" (median (durations "kernels.make_io"));
      ]
    in
    (* tracing cost: untraced passes alternated with traced ones *)
    let plain = ref [] and spanned = ref [] in
    for _ = 1 to if tiny then 1 else 5 do
      plain := snd (rerun ~traced:false (tool_pass ~ti)) :: !plain;
      spanned := snd (rerun ~traced:true (tool_pass ~ti)) :: !spanned
    done;
    let overhead =
      overhead_pct ~plain:(median !plain) ~traced:(median !spanned)
    in
    { ms; layers = m "trace.overhead_pct" overhead :: layers; notes = [] }
  end

(** [run ~root ~workload ~seed ~seconds ~trace ~tiny] runs one workload
    from the checkout at [root] and returns its result and the workload
    figures of its first pass. [tiny] shrinks every workload to a
    smoke-test size. *)
let run ~root ~workload ~seed ~seconds ~trace ~tiny =
  reset_spans ();
  tracing := trace;
  let o =
    match workload with
    | "fig7-suite" -> run_fig7 ~tiny ~seconds ~traced:trace ~seed
    | "serve-guarded" -> run_serve ~tiny ~seconds ~traced:trace ~seed
    | "toolchain" -> run_toolchain ~root ~tiny ~seconds ~traced:trace ~seed
    | w -> invalid_arg ("unknown workload " ^ w)
  in
  tracing := false;
  let passes = o.ms.passes in
  let first = List.hd passes in
  let sum f = List.fold_left (fun a p -> a + f p) 0 passes in
  let attempted = sum (fun p -> p.ops) and failed = sum (fun p -> p.failed) in
  let wall = median o.ms.times in
  let got =
    if trace then o.layers @ first.figures @ o.ms.gc
    else
      [
        m "setup_s" o.ms.setup_s; m "wall_s" wall;
        m "host_ops_per_s" (per_s (float_of_int first.ops) wall);
        m "peak_rss_mb" (peak_rss_mb ());
      ]
  in
  let units = if trace then per_layer_units else end_to_end_units in
  let metrics =
    List.map
      (fun (n, u) -> (n, u, Option.value (List.assoc_opt n got) ~default:0.0))
      units
  in
  let notes =
    (if failed > 0 then [ Printf.sprintf "%d operation(s) failed" failed ]
     else [])
    @ (if List.exists (fun (p : pass) -> p.digest <> first.digest) passes then
         [ "simulated statistics differ between passes of one run" ]
       else [])
    @ o.notes
    @ List.filter_map
        (fun (n, _) ->
          if List.mem_assoc n units then None
          else Some ("metric " ^ n ^ " is not declared"))
        got
    @ List.filter_map
        (fun (n, _, v) ->
          if Float.is_finite v then None else Some (n ^ " is not finite"))
        metrics
  in
  ( { correct = notes = []; attempted; failed_ops = failed; metrics;
      digest = first.digest; notes },
    first.figures
    @
    if trace then []
    else
      [
        m "host_setup_s" o.ms.setup_raw_s;
        m "host_wall_s" (median o.ms.raw_times);
      ] )

let result_json r =
  let metrics =
    List.map
      (fun (n, u, v) ->
        Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" n v u)
      r.metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    r.correct r.attempted r.failed_ops (String.concat ", " metrics)

(* spans of a traced run, written out when it ends *)
let write_spans ~root ~workload ~seed =
  let dir = Filename.concat root ".perfbench" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path =
    Filename.concat dir (Printf.sprintf "spans-%s-seed%d.json" workload seed)
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (spans_json ()));
  path
