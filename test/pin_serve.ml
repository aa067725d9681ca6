(* Prints the observable reports of three fixed serve runs; the dune rule
   next to this file diffs the output against pin_serve.expected, so any
   change to a simulated number, a trace-derived metric or a rendered
   report shows up as a diff.

   - a traced, faulted, guarded 2-device run whose ring wraps: the
     post-mortem Metrics fold covers the tail window, the Live tap the
     whole run;
   - the same run with a ring large enough to keep every event;
   - an untraced, faulted, guarded 1-device run: Server_stats only;
   - two traced, faulted kernel runs outside the server, under the
     non-coherent and the data-copy memory models, whose events carry
     flush/copy bytes, recovery actions and memory counters. *)

module Serve = Exochi_serving
module Live = Exochi_obs.Live
module Hist = Exochi_obs.Hist
module Metrics = Exochi_obs.Metrics
module Trace = Exochi_obs.Trace

let config ~devices =
  {
    Serve.Server.default_config with
    devices;
    guard = Some { Serve.Server.g_audit_frac = 0.05 };
    hedge_after_ps = 300 * 1_000_000;
    breaker_cooldown_ps = 2000 * 1_000_000;
  }

let fault_plan () =
  match Exochi_faults.Fault_plan.of_spec "7:0.02" with
  | Ok p -> p
  | Error msg -> failwith msg

let workload () =
  Serve.Workload.create
    (Serve.Workload.default_spec ~seed:42L ~tenants:2 ~jobs:40
       (Serve.Workload.Closed { clients_per_tenant = 2; think_ps = 0 }))

let print_live l =
  let q h p = Hist.quantile h p in
  Printf.printf
    "live: events=%d span_ps=%d shreds_enqueued=%d shreds_retired=%d \
     exo_busy_ps=%d\n"
    (Live.events l) (Live.span_ps l) (Live.shreds_enqueued l)
    (Live.shreds_retired l) (Live.exo_busy_ps l);
  Printf.printf "live: shred_lat p50=%.1f p99=%.1f count=%d\n"
    (q (Live.shred_lat l) 50.0)
    (q (Live.shred_lat l) 99.0)
    (Hist.count (Live.shred_lat l));
  Printf.printf
    "live: jobs arrived=%d done=%d shed=%d batches=%d sdc_detected=%d \
     breakers_open=%d\n"
    (Live.jobs_arrived l) (Live.jobs_done l) (Live.jobs_shed l)
    (Live.batches l) (Live.sdc_detected l) (Live.breakers_open l);
  Printf.printf "live: sheds_by_reason=[%s]\n"
    (String.concat "; "
       (List.map
          (fun (r, n) -> Printf.sprintf "%s:%d" r n)
          (Live.sheds_by_reason l)));
  Printf.printf "live: job_lat p50=%.1f p99=%.1f count=%d thr=%.6f\n"
    (q (Live.job_lat l) 50.0)
    (q (Live.job_lat l) 99.0)
    (Hist.count (Live.job_lat l))
    (Live.job_throughput_jps l)

let print_trace ~live sink =
  let m = Metrics.of_sink sink in
  print_endline (Metrics.to_json m);
  print_string (Metrics.render m);
  print_live live

let traced_two_device ~label ~capacity =
  let sink = Trace.create ~capacity () in
  let live = Live.create () in
  Live.attach live sink;
  let server =
    Serve.Server.create ~config:(config ~devices:2) ~fault_plan:(fault_plan ())
      ~trace:sink ()
  in
  let stats = Serve.Server.run server (workload ()) in
  Printf.printf "== %s: capacity=%d dropped=%d completed=%d\n" label capacity
    (Trace.dropped sink) stats.Serve.Server_stats.completed;
  print_trace ~live sink

let traced_kernel ~abbrev ~memmodel =
  let module Harness = Exochi_kernels.Harness in
  let k = Option.get (Exochi_kernels.Registry.find abbrev) in
  let sink = Trace.create ~capacity:4_000_000 () in
  let live = Live.create () in
  Live.attach live sink;
  let r =
    Harness.run ~memmodel ~frames:2 ~fault_plan:(fault_plan ()) ~trace:sink k
      Exochi_kernels.Kernel.Small
  in
  Printf.printf "== %s: correct=%b dropped=%d\n" abbrev r.Harness.correct
    (Trace.dropped sink);
  print_trace ~live sink

let () =
  traced_two_device ~label:"2 devices, wrapping ring" ~capacity:4096;
  traced_two_device ~label:"2 devices, unbounded ring" ~capacity:4_000_000;
  let server =
    Serve.Server.create ~config:(config ~devices:1) ~fault_plan:(fault_plan ())
      ()
  in
  let stats = Serve.Server.run server (workload ()) in
  print_endline "== 1 device, untraced: Server_stats";
  print_endline (Serve.Server_stats.to_json stats);
  traced_kernel ~abbrev:"SepiaTone"
    ~memmodel:Exochi_memory.Memmodel.Non_cc_shared;
  traced_kernel ~abbrev:"BOB" ~memmodel:Exochi_memory.Memmodel.Data_copy
