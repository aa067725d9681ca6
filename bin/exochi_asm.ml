(* Standalone assembler driver for the two ISAs.

     exochi_asm x3k  kernel.s          assemble, print a summary
     exochi_asm x3k  kernel.s -d       assemble and disassemble back
     exochi_asm via32 main.s [-d]      same for the CPU ISA *)

let () =
  match Array.to_list Sys.argv with
  | _ :: isa :: path :: rest ->
    let src = Cli.read_file ~tool:"exochi_asm" path in
    let disasm = List.mem "-d" rest in
    let name = Filename.remove_extension (Filename.basename path) in
    (match isa with
    | "x3k" -> (
      match Exochi_isa.X3k_asm.assemble ~name src with
      | Error e ->
        prerr_endline (Exochi_isa.Loc.error_to_string e);
        exit 1
      | Ok p ->
        let bin = Exochi_isa.X3k_asm.to_binary p in
        Printf.printf "%s: %d instructions, %d surface slots, %d bytes encoded\n"
          name
          (Array.length p.Exochi_isa.X3k_ast.instrs)
          (Array.length p.Exochi_isa.X3k_ast.surfaces)
          (Bytes.length bin);
        if disasm then print_string (Exochi_isa.X3k_asm.disassemble p))
    | "via32" -> (
      match Exochi_isa.Via32_asm.assemble ~name src with
      | Error e ->
        prerr_endline (Exochi_isa.Loc.error_to_string e);
        exit 1
      | Ok p ->
        let bin = Exochi_isa.Via32_asm.to_binary p in
        Printf.printf "%s: %d instructions, %d data symbols, %d bytes encoded\n"
          name
          (Array.length p.Exochi_isa.Via32_ast.instrs)
          (Array.length p.Exochi_isa.Via32_ast.symbols)
          (Bytes.length bin);
        if disasm then print_string (Exochi_isa.Via32_asm.disassemble p))
    | other ->
      Printf.eprintf "unknown ISA %S (expected x3k or via32)\n" other;
      exit 1)
  | _ ->
    prerr_endline "usage: exochi_asm <x3k|via32> <file.s> [-d]";
    exit 1
