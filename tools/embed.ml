(* Print an OCaml module that binds [data] to the bytes of a file, as one
   escaped string literal.  Usage: embed FILE > module.ml *)

let () =
  let s = In_channel.with_open_bin Sys.argv.(1) In_channel.input_all in
  let b = Buffer.create (3 * String.length s) in
  Buffer.add_string b "let data =\n  \"";
  String.iteri
    (fun i c ->
      (* a backslash-newline skips the next line's leading blanks, so
         spaces are always escaped *)
      if i > 0 && i mod 40 = 0 then Buffer.add_string b "\\\n   ";
      match c with
      | '"' | '\\' ->
        Buffer.add_char b '\\';
        Buffer.add_char b c
      | '!' .. '~' -> Buffer.add_char b c
      | _ -> Printf.bprintf b "\\%03d" (Char.code c))
    s;
  Buffer.add_string b "\"\n";
  print_string (Buffer.contents b)
