(** Live: the one aggregation over trace events.

    Attached with {!attach}, an aggregator sees {e every} event at
    emission time, before the bounded ring can overwrite it: counts are
    exact over unbounded runs and latency distributions are kept in
    streaming {!Hist} histograms (O(1) per event, fixed memory).
    {!Metrics.of_events} folds a ring's surviving events through the
    same {!observe}, so the post-mortem report and the live dashboard
    count every event kind the same way.

    Observation is pure accumulation — no clock, PRNG or simulation
    state is touched — so a tapped run stays bit- and time-identical to
    an untapped one ([test/test_obs.ml] enforces this alongside the
    original untraced-vs-traced identity). *)

(** Read-only outside this module; {!Metrics} snapshots it. *)
type t = private {
  mutable events : int;
  mutable first_ts : int;
  mutable last_ts : int;  (** max over event end ([ts + dur]) *)
  mutable shreds_enqueued : int;
  mutable shreds_retired : int;
  mutable exo_busy_ps : int;
  shred_lat : Hist.t;
  devs : (int, int ref * int ref) Hashtbl.t;
      (** device -> (shreds retired, busy ps) *)
  mutable atr_tlb_misses : int;
  mutable atr_gtt_hits : int;
  mutable atr_gtt_ps : int;
  mutable atr_proxies : int;
  mutable atr_proxy_ps : int;
  mutable atr_transients : int;
  mutable ceh_proxies : int;
  mutable ceh_proxy_ps : int;
  mutable ceh_spurious : int;
  mutable doorbells : int;
  mutable doorbells_lost : int;
  mutable redeliveries : int;
  mutable redispatches : int;
  mutable watchdog_reaps : int;
  mutable quarantines : int;
  mutable ia32_fallbacks : int;
  faults : (string, int) Hashtbl.t;  (** fault class -> injections *)
  mutable flush_bytes : int;
  mutable copy_bytes : int;
  mutable jobs_arrived : int;
  mutable jobs_done : int;
  mutable jobs_shed : int;
  sheds_by_reason : (string, int) Hashtbl.t;
  mutable batches : int;
  job_lat : Hist.t;
  mutable sdc_detected : int;
  mutable breaker_opens : int;
  mutable breaker_closes : int;
  mutable hedges : int;
  mutable hedge_wins : int;
  counters : (string, int) Hashtbl.t;  (** last value per counter *)
}

val create : unit -> t

(** Install this aggregator as [sink]'s tap ({!Trace.set_tap}). *)
val attach : t -> Trace.sink -> unit

(** Feed one event directly (what the tap calls). *)
val observe : t -> Trace.event -> unit

val events : t -> int

(** First event start to last event end, exact over the whole run. *)
val span_ps : t -> int

val shreds_enqueued : t -> int
val shreds_retired : t -> int
val exo_busy_ps : t -> int

(** Shred dispatch-to-retire latency distribution. *)
val shred_lat : t -> Hist.t

val jobs_arrived : t -> int
val jobs_done : t -> int
val jobs_shed : t -> int

(** Shed counts keyed by the typed reason label carried on
    [Trace.Job_shed] (e.g. ["deadline"], ["infeasible-deadline"]),
    sorted by label. Empty when nothing was shed. *)
val sheds_by_reason : t -> (string * int) list

val batches : t -> int

(** Job submit-to-completion latency distribution. *)
val job_lat : t -> Hist.t

val sdc_detected : t -> int

(** Currently-open circuit breakers (opens minus closes). *)
val breakers_open : t -> int

(** [(dev, shreds retired, busy ps)] for every device that retired a
    shred, in device order. *)
val device_rows : t -> (int * int * int) list

(** Injections per fault class, sorted by class name. *)
val faults : t -> (string * int) list

(** Last value per counter, sorted by counter name. *)
val counters : t -> (string * int) list

(** Completed jobs per second over {!span_ps}. *)
val job_throughput_jps : t -> float
