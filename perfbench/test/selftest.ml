(* Self-test of the benchmark at a tiny size. For every workload named in
   BENCHMARK.json: two seeds run clean; an untraced run emits exactly the
   end-to-end metrics and a traced run exactly the per-layer metrics,
   each with its declared unit; the result line is valid JSON; and the
   same seed gives the same simulated-model digest, traced or not. *)

module J = Exochi_obs.Tiny_json

(* dune runs the test from _build/default/perfbench/test *)
let root = "../.."

let failures = ref 0

let check ok what =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" what
  end

let benchmark =
  let ic = open_in_bin (Filename.concat root "BENCHMARK.json") in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match J.parse text with
  | Ok j -> j
  | Error e -> failwith ("BENCHMARK.json: " ^ e)

let field key j =
  match Option.bind (J.member key j) J.to_str with
  | Some s -> s
  | None -> failwith ("BENCHMARK.json: missing " ^ key)

let entries key =
  match Option.bind (J.member key benchmark) J.to_arr with
  | Some l -> l
  | None -> failwith ("BENCHMARK.json: missing " ^ key)

let declared key =
  List.map (fun e -> (field "name" e, field "unit" e)) (entries key)

let () =
  let end_to_end = declared "end_to_end" and per_layer = declared "per_layer" in
  List.iter
    (fun w ->
      let workload = field "name" w in
      let run ~seed ~trace =
        fst (Perfbench.run ~root ~workload ~seed ~seconds:1 ~trace ~tiny:true)
      in
      let emitted (r : Perfbench.result) =
        List.map (fun (n, u, _) -> (n, u)) r.Perfbench.metrics
      in
      let clean what (r : Perfbench.result) =
        check r.Perfbench.correct
          (Printf.sprintf "%s %s: not correct (%s)" workload what
             (String.concat "; " r.Perfbench.notes));
        check (r.Perfbench.attempted > 0 && r.Perfbench.failed_ops = 0)
          (Printf.sprintf "%s %s: operations failed" workload what);
        check
          (Result.is_ok (J.parse (Perfbench.result_json r)))
          (Printf.sprintf "%s %s: result line is not JSON" workload what)
      in
      let a = run ~seed:1 ~trace:false in
      clean "seed 1" a;
      check (emitted a = end_to_end)
        (workload ^ ": untraced metrics differ from BENCHMARK.json end_to_end");
      let b = run ~seed:1 ~trace:false in
      check (a.Perfbench.digest = b.Perfbench.digest)
        (workload ^ ": same seed, different digest");
      let t = run ~seed:1 ~trace:true in
      clean "traced" t;
      check (emitted t = per_layer)
        (workload ^ ": traced metrics differ from BENCHMARK.json per_layer");
      check (t.Perfbench.digest = a.Perfbench.digest)
        (workload ^ ": traced run changed the simulated statistics");
      clean "seed 2" (run ~seed:2 ~trace:false);
      Printf.printf "%s ok (digest %s)\n%!" workload a.Perfbench.digest)
    (entries "workloads");
  if !failures > 0 then exit 1
