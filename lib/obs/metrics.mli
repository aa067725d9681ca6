(** Per-kernel metrics derived from a trace: EU occupancy, shred-latency
    percentiles, ATR/CEH proxy-service breakdowns, recovery activity and
    bytes moved. A snapshot of a {!Live} aggregator folded over the
    ring's events — computing metrics never perturbs the simulation. *)

(** Count + accumulated service time of one proxy path. *)
type service = { count : int; total_ps : int }

type t = {
  events : int;
  dropped : int;
  windowed : bool;
      (** true when the ring wrapped ([dropped > 0]): counts and
          percentiles below cover only the surviving tail window. Attach
          a {!Live} aggregator for exact whole-run statistics. *)
  span_ps : int;  (** first event start .. last event end *)
  exo_tracks : int;
  shreds_retired : int;
  shreds_enqueued : int;
  lat_p50_ps : float;
  lat_p95_ps : float;
  lat_p99_ps : float;
  lat_mean_ps : float;
  exo_busy_ps : int;
  occupancy : float;
      (** summed shred-run time / (exo_tracks * span), in [0,1] *)
  atr_tlb_misses : int;
  atr_gtt_hits : service;
  atr_proxies : service;
  atr_transients : int;
  ceh_proxies : service;
  ceh_spurious : int;
  doorbells : int;
  doorbells_lost : int;
  redeliveries : int;
  redispatches : int;
  watchdog_reaps : int;
  quarantines : int;
  ia32_fallbacks : int;
  faults : (string * int) list;  (** per fault class, name-sorted *)
  flush_bytes : int;
  copy_bytes : int;
  jobs_arrived : int;  (** Exo-serve: jobs past admission *)
  jobs_done : int;  (** Exo-serve: jobs completed at a team barrier *)
  jobs_shed : int;  (** Exo-serve: jobs rejected or dropped *)
  batches : int;  (** Exo-serve: coalesced teams dispatched *)
  job_lat_p50_ps : float;  (** submit → completion, media job latency *)
  job_lat_p99_ps : float;
  sdc_detected : int;
      (** Exo-guard: corruptions caught by checksums/audits *)
  breaker_opens : int;  (** Exo-guard: circuit-breaker trips *)
  breaker_closes : int;  (** Exo-guard: probationary reinstatements *)
  hedges : int;  (** Exo-guard: backup dispatches for stragglers *)
  hedge_wins : int;  (** Exo-guard: hedged shreds whose first copy won *)
  counters : (string * int) list;  (** last value per counter, name-sorted *)
  device_rows : (int * int * int) list;
      (** Exo-fabric: [(dev, shreds retired, busy ps)] per device that
          retired work, in device order. Rendered (and serialised as
          [devN_*] fields) only when more than one device appears, so
          single-device reports are unchanged. *)
}

val of_events :
  ?dropped:int -> eus:int -> threads_per_eu:int -> Trace.event list -> t

val of_sink : Trace.sink -> t

(** Plain-text summary (the [exochi_run --metrics] / harness report). *)
val render : t -> string

(** Deterministic flat JSON object. [extra] fields (already-serialised
    values) are emitted first — used for kernel name / config tags in
    [BENCH_metrics.json]. *)
val to_json : ?extra:(string * string) list -> t -> string
