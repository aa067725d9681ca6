(* CHI-lite compiler driver: produce a fat binary from C-like source.

     exochi_cc prog.chi                 compile, write prog.fat
     exochi_cc prog.chi -o out.fat      choose the output path
     exochi_cc prog.chi -S              print the generated VIA32 assembly
     exochi_cc prog.chi --sections      list the fat binary's sections
     exochi_cc prog.chi --lint          also run Exo-check (warnings only)
     exochi_cc prog.chi --lint-error    fail on error-severity findings
     exochi_cc prog.chi -O1|-O2         Exo-opt the accelerator sections
     exochi_cc prog.chi -O2 --emit-asm  dump original vs optimized X3K
                                        side by side with per-block cycles

   Compile failures print the offending source line with a caret. *)

let () =
  match Array.to_list Sys.argv with
  | _ :: path :: rest ->
    let src = Cli.read_file ~tool:"exochi_cc" path in
    let name = Filename.remove_extension (Filename.basename path) in
    let fail e =
      prerr_endline (Exochi_isa.Loc.error_to_string_source ~src e);
      exit 1
    in
    let opt_level =
      let rec find = function
        | [] -> Exochi_opt.Opt.O0
        | f :: r -> (
          match Exochi_opt.Opt.level_of_string f with
          | Some l when String.length f > 1 && f.[0] = '-' -> l
          | _ -> find r)
      in
      find rest
    in
    if List.mem "-S" rest then begin
      match Exochi_core.Chilite_compile.compile_to_via32_text ~name src with
      | Ok text -> print_string text
      | Error e -> fail e
    end
    else if List.mem "--emit-asm" rest then begin
      (* compile twice — O0 for the originals — and print each
         accelerator section's before/after with cycle deltas *)
      match
        ( Exochi_core.Chilite_compile.compile ~name src,
          Exochi_core.Chilite_compile.compile ~opt_level ~name src )
      with
      | Error e, _ | _, Error e -> fail e
      | Ok original, Ok optimized ->
        List.iter2
          (fun (o : Exochi_core.Chilite_compile.section_info)
               (q : Exochi_core.Chilite_compile.section_info) ->
            print_string
              (Exochi_opt.Opt.diff_report
                 ~original:o.Exochi_core.Chilite_compile.x3k
                 ~optimized:q.Exochi_core.Chilite_compile.x3k))
          original.Exochi_core.Chilite_compile.sections
          optimized.Exochi_core.Chilite_compile.sections
    end
    else begin
      match Exochi_core.Chilite_compile.compile ~opt_level ~name src with
      | Error e -> fail e
      | Ok compiled ->
        let lint = List.mem "--lint" rest in
        let lint_error = List.mem "--lint-error" rest in
        if lint || lint_error then begin
          let findings =
            Exochi_analysis.Exo_check.check_compiled compiled
          in
          List.iter
            (fun f ->
              prerr_endline (Exochi_analysis.Finding.to_string f))
            findings;
          if lint_error && Exochi_analysis.Finding.has_errors findings then
            exit 1
        end;
        let fb = compiled.Exochi_core.Chilite_compile.fatbin in
        if List.mem "--sections" rest then
          List.iter
            (fun (isa, n) ->
              Printf.printf "%-6s %s\n"
                (match isa with
                | Exochi_core.Chi_fatbin.Via32 -> "VIA32"
                | Exochi_core.Chi_fatbin.X3k -> "X3K")
                n)
            (Exochi_core.Chi_fatbin.section_names fb)
        else begin
          let out =
            let rec find = function
              | "-o" :: o :: _ -> o
              | _ :: r -> find r
              | [] -> Filename.remove_extension path ^ ".fat"
            in
            find rest
          in
          Exochi_core.Chi_fatbin.write_file fb ~path:out;
          Printf.printf "%s: fat binary with %d section(s) -> %s\n" name
            (List.length (Exochi_core.Chi_fatbin.section_names fb))
            out
        end
    end
  | _ ->
    prerr_endline
      "usage: exochi_cc <prog.chi> [-o out.fat] [-O0|-O1|-O2] [-S] \
       [--sections] [--emit-asm] [--lint] [--lint-error]";
    exit 1
