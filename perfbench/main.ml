(* Command line of the benchmark; perfbench/run.py builds it and runs it
   from the repository root:

     main.exe --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

   Human-readable lines (workload figures, the simulated-model digest,
   the span file of a traced run) go first; the last line of standard
   output is the result as one JSON object. *)

let usage () =
  prerr_endline
    "usage: main.exe --workload (fig7-suite|serve-guarded|toolchain) --seed N \
     --seconds S --trace 0|1 [--tiny]";
  exit 2

let () =
  let workload = ref None and seed = ref None and seconds = ref None in
  let trace = ref None and tiny = ref false in
  let int_arg r v =
    match int_of_string_opt v with Some n -> r := Some n | None -> usage ()
  in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest ->
      workload := Some v;
      parse rest
    | "--seed" :: v :: rest ->
      int_arg seed v;
      parse rest
    | "--seconds" :: v :: rest ->
      int_arg seconds v;
      parse rest
    | "--trace" :: (("0" | "1") as v) :: rest ->
      trace := Some (v = "1");
      parse rest
    | "--tiny" :: rest ->
      tiny := true;
      parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some workload, Some seed, Some seconds, Some trace
    when List.mem workload Perfbench.workloads && seconds > 0 ->
    let root = Sys.getcwd () in
    if not (Sys.file_exists (Filename.concat root "examples")) then begin
      prerr_endline "perfbench: run from the repository root";
      exit 2
    end;
    let r, figures =
      Perfbench.run ~root ~workload ~seed ~seconds ~trace ~tiny:!tiny
    in
    List.iter
      (fun (n, v) ->
        Printf.printf "figure %s = %.6g %s\n" n v (Perfbench.unit_of n))
      figures;
    Printf.printf "digest %s seed=%d %s\n" workload seed r.Perfbench.digest;
    List.iter (fun n -> Printf.printf "not correct: %s\n" n) r.Perfbench.notes;
    if trace then
      Printf.printf "spans %s\n"
        (Perfbench.write_spans ~root ~workload ~seed);
    print_endline (Perfbench.result_json r)
  | _ -> usage ()
