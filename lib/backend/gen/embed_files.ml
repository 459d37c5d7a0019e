(* Print each file named on the command line as one [(basename, bytes)]
   pair of an OCaml list named [files]. *)

let read path =
  In_channel.with_open_bin path In_channel.input_all

let () =
  print_string "let files = [\n";
  Array.iteri
    (fun i path ->
      if i > 0 then
        Printf.printf "  (%S, %S);\n" (Filename.basename path) (read path))
    Sys.argv;
  print_string "]\n"
