(* Helpers shared by the command-line tools. *)

(* The whole contents of [path]. An unreadable file ends the program with
   "TOOL: PATH: REASON" on stderr and exit status 1. *)
let read_file ~tool path =
  try In_channel.with_open_bin path In_channel.input_all
  with Sys_error msg ->
    let prefix = path ^ ": " in
    let reason =
      if String.starts_with ~prefix msg then
        String.sub msg (String.length prefix)
          (String.length msg - String.length prefix)
      else msg
    in
    Printf.eprintf "%s: %s: %s\n" tool path reason;
    exit 1
