(* Validate an exported Chrome/Perfetto trace-event file:

     exochi_trace_lint trace.json [--min-tracks N] [--allow-dropped]

   Checks the file is well-formed JSON with a traceEvents array, that
   every event carries ph/pid/tid/ts (dur on "X" slices), and that
   timestamps are monotonically non-decreasing per track. A file whose
   exochi_sink metadata records ring drops fails the lint — the export
   is a tail window of the run, not the run — unless --allow-dropped is
   given. CI runs this over the example trace it uploads as an artifact.
   Exit 0 on success. *)

let () =
  let usage () =
    prerr_endline
      "usage: exochi_trace_lint <trace.json> [--min-tracks N] \
       [--allow-dropped]";
    exit 2
  in
  match Array.to_list Sys.argv with
  | _ :: path :: rest ->
    let min_tracks = ref 0 and allow_dropped = ref false in
    let rec parse = function
      | [] -> ()
      | "--min-tracks" :: n :: r -> (
        match int_of_string_opt n with
        | Some n ->
          min_tracks := n;
          parse r
        | None -> usage ())
      | "--allow-dropped" :: r ->
        allow_dropped := true;
        parse r
      | _ -> usage ()
    in
    parse rest;
    let min_tracks = !min_tracks and allow_dropped = !allow_dropped in
    let text = Cli.read_file ~tool:"exochi_trace_lint" path in
    (match Exochi_obs.Trace_export.validate_chrome text with
    | Error msg ->
      Printf.eprintf "exochi_trace_lint: %s: INVALID: %s\n" path msg;
      exit 1
    | Ok v ->
      if v.Exochi_obs.Trace_export.tracks < min_tracks then begin
        Printf.eprintf
          "exochi_trace_lint: %s: only %d track(s), expected at least %d\n"
          path v.Exochi_obs.Trace_export.tracks min_tracks;
        exit 1
      end;
      if v.Exochi_obs.Trace_export.dropped > 0 && not allow_dropped then begin
        Printf.eprintf
          "exochi_trace_lint: %s: %d event(s) dropped — the ring wrapped, \
           so this export is a tail window of the run, not the run \
           (re-record with a larger --capacity, or pass --allow-dropped)\n"
          path v.Exochi_obs.Trace_export.dropped;
        exit 1
      end;
      Printf.printf
        "%s: OK (%d track(s), %d event(s), %d counter sample(s)%s; \
         per-track timestamps monotonic)\n"
        path v.Exochi_obs.Trace_export.tracks v.Exochi_obs.Trace_export.events
        v.Exochi_obs.Trace_export.counters
        (if v.Exochi_obs.Trace_export.dropped > 0 then
           Printf.sprintf ", %d dropped" v.Exochi_obs.Trace_export.dropped
         else ""))
  | _ -> usage ()
