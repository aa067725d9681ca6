(* Live: the one fold over trace events.

   Fed by the Trace.emit tap it sees every event at emission time, so
   counts stay exact and latency distributions are held in streaming
   Hist histograms no matter how often the ring wraps. Metrics.of_events
   folds a ring's surviving events through the same [observe].
   Accumulation is pure (no clock, no PRNG, no simulation state),
   preserving the tracing layer's bit-and-time-identity guarantee. *)

type t = {
  mutable events : int;
  mutable first_ts : int;
  mutable last_ts : int; (* max over ts + dur *)
  (* shreds *)
  mutable shreds_enqueued : int;
  mutable shreds_retired : int;
  mutable exo_busy_ps : int;
  shred_lat : Hist.t;
  (* device -> (shreds retired, busy ps); a single-device run only ever
     touches key 0 *)
  devs : (int, int ref * int ref) Hashtbl.t;
  (* proxy services *)
  mutable atr_tlb_misses : int;
  mutable atr_gtt_hits : int;
  mutable atr_gtt_ps : int;
  mutable atr_proxies : int;
  mutable atr_proxy_ps : int;
  mutable atr_transients : int;
  mutable ceh_proxies : int;
  mutable ceh_proxy_ps : int;
  mutable ceh_spurious : int;
  (* dispatch & recovery *)
  mutable doorbells : int;
  mutable doorbells_lost : int;
  mutable redeliveries : int;
  mutable redispatches : int;
  mutable watchdog_reaps : int;
  mutable quarantines : int;
  mutable ia32_fallbacks : int;
  faults : (string, int) Hashtbl.t;
  (* bytes moved *)
  mutable flush_bytes : int;
  mutable copy_bytes : int;
  (* serve job lifecycle *)
  mutable jobs_arrived : int;
  mutable jobs_done : int;
  mutable jobs_shed : int;
  sheds_by_reason : (string, int) Hashtbl.t;
  mutable batches : int;
  job_lat : Hist.t;
  (* guard *)
  mutable sdc_detected : int;
  mutable breaker_opens : int;
  mutable breaker_closes : int;
  mutable hedges : int;
  mutable hedge_wins : int;
  counters : (string, int) Hashtbl.t; (* last value per counter *)
}

let create () =
  {
    events = 0;
    first_ts = max_int;
    last_ts = 0;
    shreds_enqueued = 0;
    shreds_retired = 0;
    exo_busy_ps = 0;
    shred_lat = Hist.create ();
    devs = Hashtbl.create 4;
    atr_tlb_misses = 0;
    atr_gtt_hits = 0;
    atr_gtt_ps = 0;
    atr_proxies = 0;
    atr_proxy_ps = 0;
    atr_transients = 0;
    ceh_proxies = 0;
    ceh_proxy_ps = 0;
    ceh_spurious = 0;
    doorbells = 0;
    doorbells_lost = 0;
    redeliveries = 0;
    redispatches = 0;
    watchdog_reaps = 0;
    quarantines = 0;
    ia32_fallbacks = 0;
    faults = Hashtbl.create 8;
    flush_bytes = 0;
    copy_bytes = 0;
    jobs_arrived = 0;
    jobs_done = 0;
    jobs_shed = 0;
    sheds_by_reason = Hashtbl.create 8;
    batches = 0;
    job_lat = Hist.create ();
    sdc_detected = 0;
    breaker_opens = 0;
    breaker_closes = 0;
    hedges = 0;
    hedge_wins = 0;
    counters = Hashtbl.create 16;
  }

let incr_key tbl key =
  Hashtbl.replace tbl key (1 + Option.value (Hashtbl.find_opt tbl key) ~default:0)

let observe t (e : Trace.event) =
  t.events <- t.events + 1;
  if e.Trace.ts_ps < t.first_ts then t.first_ts <- e.Trace.ts_ps;
  let dur = e.Trace.dur_ps in
  let fin = e.Trace.ts_ps + dur in
  if fin > t.last_ts then t.last_ts <- fin;
  match e.Trace.kind with
  | Trace.Shred_enqueue _ -> t.shreds_enqueued <- t.shreds_enqueued + 1
  | Trace.Shred_run _ ->
    t.shreds_retired <- t.shreds_retired + 1;
    t.exo_busy_ps <- t.exo_busy_ps + dur;
    (match Hashtbl.find_opt t.devs e.Trace.dev with
    | Some (retired, busy) ->
      incr retired;
      busy := !busy + dur
    | None -> Hashtbl.replace t.devs e.Trace.dev (ref 1, ref dur));
    Hist.record t.shred_lat (float_of_int dur)
  | Trace.Signal_doorbell { lost; _ } ->
    t.doorbells <- t.doorbells + 1;
    if lost then t.doorbells_lost <- t.doorbells_lost + 1
  | Trace.Doorbell_redeliver _ -> t.redeliveries <- t.redeliveries + 1
  | Trace.Shred_dispatch _ | Trace.Shred_start _ -> ()
  | Trace.Watchdog_reap _ -> t.watchdog_reaps <- t.watchdog_reaps + 1
  | Trace.Redispatch _ -> t.redispatches <- t.redispatches + 1
  | Trace.Quarantine -> t.quarantines <- t.quarantines + 1
  | Trace.Ia32_fallback _ -> t.ia32_fallbacks <- t.ia32_fallbacks + 1
  | Trace.Atr_tlb_miss _ -> t.atr_tlb_misses <- t.atr_tlb_misses + 1
  | Trace.Atr_gtt_hit _ ->
    t.atr_gtt_hits <- t.atr_gtt_hits + 1;
    t.atr_gtt_ps <- t.atr_gtt_ps + dur
  | Trace.Atr_proxy _ ->
    t.atr_proxies <- t.atr_proxies + 1;
    t.atr_proxy_ps <- t.atr_proxy_ps + dur
  | Trace.Atr_transient _ -> t.atr_transients <- t.atr_transients + 1
  | Trace.Atr_prewalk _ -> ()
  | Trace.Ceh_proxy _ ->
    t.ceh_proxies <- t.ceh_proxies + 1;
    t.ceh_proxy_ps <- t.ceh_proxy_ps + dur
  | Trace.Ceh_writeback _ -> ()
  | Trace.Ceh_spurious -> t.ceh_spurious <- t.ceh_spurious + 1
  | Trace.Fault_injected { cls } -> incr_key t.faults cls
  | Trace.Flush { bytes } -> t.flush_bytes <- t.flush_bytes + bytes
  | Trace.Copy { bytes } -> t.copy_bytes <- t.copy_bytes + bytes
  | Trace.Job_arrive _ -> t.jobs_arrived <- t.jobs_arrived + 1
  | Trace.Job_done { latency_ps; _ } ->
    t.jobs_done <- t.jobs_done + 1;
    Hist.record t.job_lat (float_of_int latency_ps)
  | Trace.Job_shed { reason; _ } ->
    t.jobs_shed <- t.jobs_shed + 1;
    incr_key t.sheds_by_reason reason
  | Trace.Batch_dispatch _ -> t.batches <- t.batches + 1
  | Trace.Sdc_detected { corruptions; _ } ->
    t.sdc_detected <- t.sdc_detected + corruptions
  | Trace.Breaker_open _ -> t.breaker_opens <- t.breaker_opens + 1
  | Trace.Breaker_close _ -> t.breaker_closes <- t.breaker_closes + 1
  | Trace.Hedge_dispatch _ -> t.hedges <- t.hedges + 1
  | Trace.Hedge_win _ -> t.hedge_wins <- t.hedge_wins + 1
  | Trace.Counter { counter; value } -> Hashtbl.replace t.counters counter value

let attach t sink = Trace.set_tap sink (observe t)

let events t = t.events
let span_ps t = if t.events = 0 then 0 else max 0 (t.last_ts - t.first_ts)
let shreds_enqueued t = t.shreds_enqueued
let shreds_retired t = t.shreds_retired
let exo_busy_ps t = t.exo_busy_ps
let shred_lat t = t.shred_lat
let jobs_arrived t = t.jobs_arrived
let jobs_done t = t.jobs_done
let jobs_shed t = t.jobs_shed

let sorted tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare

let sheds_by_reason t = sorted t.sheds_by_reason
let batches t = t.batches
let job_lat t = t.job_lat
let sdc_detected t = t.sdc_detected
let breakers_open t = max 0 (t.breaker_opens - t.breaker_closes)

let device_rows t =
  Hashtbl.fold (fun d (r, b) acc -> (d, !r, !b) :: acc) t.devs []
  |> List.sort compare

let faults t = sorted t.faults
let counters t = sorted t.counters

let job_throughput_jps t =
  let span = span_ps t in
  if span <= 0 then 0.0 else float_of_int t.jobs_done *. 1e12 /. float_of_int span
