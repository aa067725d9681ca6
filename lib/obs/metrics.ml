(* Per-kernel metrics: a snapshot of Live folded over the events a ring
   kept (plus the counter snapshots the platform emits at the end of a
   run), so the report works on any sink regardless of which layer
   filled it, and counts every event kind exactly as the live tap does. *)

type service = { count : int; total_ps : int }

type t = {
  events : int;
  dropped : int;
  windowed : bool; (* ring wrapped: percentiles cover the tail only *)
  span_ps : int; (* first event start .. last event end *)
  exo_tracks : int;
  (* shreds *)
  shreds_retired : int;
  shreds_enqueued : int;
  lat_p50_ps : float;
  lat_p95_ps : float;
  lat_p99_ps : float;
  lat_mean_ps : float;
  (* occupancy: summed shred-run time / (exo_tracks * span) *)
  exo_busy_ps : int;
  occupancy : float;
  (* proxy breakdown *)
  atr_tlb_misses : int;
  atr_gtt_hits : service;
  atr_proxies : service;
  atr_transients : int;
  ceh_proxies : service;
  ceh_spurious : int;
  (* dispatch & recovery *)
  doorbells : int;
  doorbells_lost : int;
  redeliveries : int;
  redispatches : int;
  watchdog_reaps : int;
  quarantines : int;
  ia32_fallbacks : int;
  faults : (string * int) list; (* per class, name-sorted *)
  (* bytes moved *)
  flush_bytes : int;
  copy_bytes : int;
  (* Exo-serve job lifecycle (zero unless a serve layer emitted) *)
  jobs_arrived : int;
  jobs_done : int;
  jobs_shed : int;
  batches : int;
  job_lat_p50_ps : float;
  job_lat_p99_ps : float;
  (* Exo-guard integrity & resilience (zero unless the guard layer ran) *)
  sdc_detected : int;
  breaker_opens : int;
  breaker_closes : int;
  hedges : int;
  hedge_wins : int;
  counters : (string * int) list; (* last value per counter, name-sorted *)
  device_rows : (int * int * int) list;
      (* (dev, shreds retired, busy ps), device order; one row per
         device that retired work *)
}

let of_events ?(dropped = 0) ~eus ~threads_per_eu events =
  let l = Live.create () in
  List.iter (Live.observe l) events;
  let exo_tracks = eus * threads_per_eu in
  let span = Live.span_ps l in
  let service count total_ps = { count; total_ps } in
  {
    events = l.events;
    dropped;
    windowed = dropped > 0;
    span_ps = span;
    exo_tracks;
    shreds_retired = l.shreds_retired;
    shreds_enqueued = l.shreds_enqueued;
    lat_p50_ps = Hist.quantile l.shred_lat 50.0;
    lat_p95_ps = Hist.quantile l.shred_lat 95.0;
    lat_p99_ps = Hist.quantile l.shred_lat 99.0;
    lat_mean_ps = Hist.mean l.shred_lat;
    exo_busy_ps = l.exo_busy_ps;
    occupancy =
      (if span = 0 || exo_tracks = 0 then 0.0
       else
         float_of_int l.exo_busy_ps
         /. (float_of_int span *. float_of_int exo_tracks));
    atr_tlb_misses = l.atr_tlb_misses;
    atr_gtt_hits = service l.atr_gtt_hits l.atr_gtt_ps;
    atr_proxies = service l.atr_proxies l.atr_proxy_ps;
    atr_transients = l.atr_transients;
    ceh_proxies = service l.ceh_proxies l.ceh_proxy_ps;
    ceh_spurious = l.ceh_spurious;
    doorbells = l.doorbells;
    doorbells_lost = l.doorbells_lost;
    redeliveries = l.redeliveries;
    redispatches = l.redispatches;
    watchdog_reaps = l.watchdog_reaps;
    quarantines = l.quarantines;
    ia32_fallbacks = l.ia32_fallbacks;
    faults = Live.faults l;
    flush_bytes = l.flush_bytes;
    copy_bytes = l.copy_bytes;
    jobs_arrived = l.jobs_arrived;
    jobs_done = l.jobs_done;
    jobs_shed = l.jobs_shed;
    batches = l.batches;
    job_lat_p50_ps = Hist.quantile l.job_lat 50.0;
    job_lat_p99_ps = Hist.quantile l.job_lat 99.0;
    sdc_detected = l.sdc_detected;
    breaker_opens = l.breaker_opens;
    breaker_closes = l.breaker_closes;
    hedges = l.hedges;
    hedge_wins = l.hedge_wins;
    counters = Live.counters l;
    device_rows = Live.device_rows l;
  }

let of_sink sink =
  of_events ~dropped:(Trace.dropped sink) ~eus:(Trace.eus sink)
    ~threads_per_eu:(Trace.threads_per_eu sink)
    (Trace.events sink)

(* ---- rendering ---- *)

let ms ps = float_of_int ps /. 1e9
let us f = f /. 1e6

let render m =
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "trace        : %d event(s)%s over %.3f ms on %d exo track(s) + IA32"
    m.events
    (if m.dropped > 0 then Printf.sprintf " (%d dropped; windowed)" m.dropped
     else "")
    (ms m.span_ps) m.exo_tracks;
  line "shreds       : %d retired / %d enqueued; %d doorbell(s)%s"
    m.shreds_retired m.shreds_enqueued m.doorbells
    (if m.doorbells_lost > 0 then
       Printf.sprintf " (%d lost, %d re-rung)" m.doorbells_lost m.redeliveries
     else "");
  if m.shreds_retired > 0 then begin
    line "shred latency: p50 %.1f us  p95 %.1f us  p99 %.1f us  (mean %.1f us)"
      (us m.lat_p50_ps) (us m.lat_p95_ps) (us m.lat_p99_ps) (us m.lat_mean_ps);
    line "EU occupancy : %.1f%% (%.3f ms busy across %d contexts)"
      (100.0 *. m.occupancy) (ms m.exo_busy_ps) m.exo_tracks
  end;
  line "ATR          : %d TLB miss(es) -> %d GTT-shadow hit(s) (%.1f us), %d \
        full proxy walk(s) (%.1f us)%s"
    m.atr_tlb_misses m.atr_gtt_hits.count
    (us (float_of_int m.atr_gtt_hits.total_ps))
    m.atr_proxies.count
    (us (float_of_int m.atr_proxies.total_ps))
    (if m.atr_transients > 0 then
       Printf.sprintf ", %d transient retry(ies)" m.atr_transients
     else "");
  line "CEH          : %d proxy(ies) (%.1f us)%s" m.ceh_proxies.count
    (us (float_of_int m.ceh_proxies.total_ps))
    (if m.ceh_spurious > 0 then
       Printf.sprintf ", %d spurious trap(s)" m.ceh_spurious
     else "");
  if
    m.redispatches > 0 || m.watchdog_reaps > 0 || m.quarantines > 0
    || m.ia32_fallbacks > 0
  then
    line "recovery     : %d watchdog reap(s), %d redispatch(es), %d \
          quarantine(s), %d IA32 fallback(s)"
      m.watchdog_reaps m.redispatches m.quarantines m.ia32_fallbacks;
  if m.faults <> [] then
    line "faults       : %s"
      (String.concat ", "
         (List.map (fun (c, n) -> Printf.sprintf "%s x%d" c n) m.faults));
  if m.flush_bytes > 0 || m.copy_bytes > 0 then
    line "bytes moved  : %d KiB flushed, %d KiB copied" (m.flush_bytes / 1024)
      (m.copy_bytes / 1024);
  if m.jobs_arrived > 0 || m.jobs_done > 0 || m.jobs_shed > 0 then
    line
      "serving      : %d job(s) admitted, %d done, %d shed across %d \
       batch(es); job latency p50 %.1f us p99 %.1f us"
      m.jobs_arrived m.jobs_done m.jobs_shed m.batches (us m.job_lat_p50_ps)
      (us m.job_lat_p99_ps);
  if
    m.sdc_detected > 0 || m.breaker_opens > 0 || m.breaker_closes > 0
    || m.hedges > 0
  then
    line
      "guard        : %d SDC detected; breakers %d open / %d close; %d \
       hedge(s), %d won"
      m.sdc_detected m.breaker_opens m.breaker_closes m.hedges m.hedge_wins;
  (* the device breakdown only exists under a multi-device topology, so
     single-device reports render byte-identically *)
  (match m.device_rows with
  | [] | [ _ ] -> ()
  | rows ->
    List.iter
      (fun (d, retired, busy) ->
        line "device %d     : %d shred(s) retired, %.3f ms busy" d retired
          (ms busy))
      rows);
  List.iter (fun (name, v) -> line "counter      : %-18s %d" name v) m.counters;
  Buffer.contents b

(* deterministic flat JSON (per-kernel metrics snapshots for bench) *)
let to_json ?(extra = []) m =
  let b = Buffer.create 512 in
  Buffer.add_string b "{";
  let first = ref true in
  let field k v =
    if !first then first := false else Buffer.add_string b ",";
    Buffer.add_string b (Printf.sprintf "\"%s\":%s" k v)
  in
  let num_int k v = field k (string_of_int v) in
  let num_f k v = field k (Printf.sprintf "%.6f" v) in
  List.iter (fun (k, v) -> field k v) extra;
  num_int "events" m.events;
  num_int "dropped" m.dropped;
  field "windowed" (if m.windowed then "true" else "false");
  num_int "span_ps" m.span_ps;
  num_int "exo_tracks" m.exo_tracks;
  num_int "shreds_retired" m.shreds_retired;
  num_f "occupancy" m.occupancy;
  num_f "shred_lat_p50_ps" m.lat_p50_ps;
  num_f "shred_lat_p95_ps" m.lat_p95_ps;
  num_f "shred_lat_p99_ps" m.lat_p99_ps;
  num_f "shred_lat_mean_ps" m.lat_mean_ps;
  num_int "atr_tlb_misses" m.atr_tlb_misses;
  num_int "atr_gtt_hits" m.atr_gtt_hits.count;
  num_int "atr_gtt_ps" m.atr_gtt_hits.total_ps;
  num_int "atr_proxies" m.atr_proxies.count;
  num_int "atr_proxy_ps" m.atr_proxies.total_ps;
  num_int "atr_transients" m.atr_transients;
  num_int "ceh_proxies" m.ceh_proxies.count;
  num_int "ceh_proxy_ps" m.ceh_proxies.total_ps;
  num_int "ceh_spurious" m.ceh_spurious;
  num_int "doorbells" m.doorbells;
  num_int "doorbells_lost" m.doorbells_lost;
  num_int "redispatches" m.redispatches;
  num_int "watchdog_reaps" m.watchdog_reaps;
  num_int "quarantines" m.quarantines;
  num_int "ia32_fallbacks" m.ia32_fallbacks;
  num_int "flush_bytes" m.flush_bytes;
  num_int "copy_bytes" m.copy_bytes;
  num_int "jobs_arrived" m.jobs_arrived;
  num_int "jobs_done" m.jobs_done;
  num_int "jobs_shed" m.jobs_shed;
  num_int "batches" m.batches;
  num_f "job_lat_p50_ps" m.job_lat_p50_ps;
  num_f "job_lat_p99_ps" m.job_lat_p99_ps;
  num_int "sdc_detected" m.sdc_detected;
  num_int "breaker_opens" m.breaker_opens;
  num_int "breaker_closes" m.breaker_closes;
  num_int "hedges" m.hedges;
  num_int "hedge_wins" m.hedge_wins;
  (match m.device_rows with
  | [] | [ _ ] -> ()
  | rows ->
    List.iter
      (fun (d, retired, busy) ->
        num_int (Printf.sprintf "dev%d_shreds_retired" d) retired;
        num_int (Printf.sprintf "dev%d_busy_ps" d) busy)
      rows);
  List.iter (fun (name, v) -> num_int name v) m.counters;
  Buffer.add_string b "}";
  Buffer.contents b
