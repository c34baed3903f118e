(* Generate or check the Steiner topology table (lib/steiner/steiner_table.bin).

     steiner_table [--domains N] [--out FILE]
       generate every class of degree 2-8 (class-parallel over N domains)
       and write the table (default FILE: lib/steiner/steiner_table.bin)
     steiner_table --check FILE
       validate FILE, compare its per-degree counts and keys with the
       enumeration of every permutation, and regenerate every class of
       degree <= 6 and compare it bytewise; exit 1 on any difference *)

let () =
  let domains = ref 1 in
  let out = ref "lib/steiner/steiner_table.bin" in
  let check = ref None in
  Arg.parse
    [ ("--domains", Arg.Set_int domains, "N worker domains (default 1)");
      ("--out", Arg.Set_string out, "FILE table to write");
      ("--check", Arg.String (fun f -> check := Some f), "FILE table to check") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "steiner_table [--domains N] [--out FILE | --check FILE]";
  let status =
    match !check with
    | Some file -> (
      let data = In_channel.with_open_bin file In_channel.input_all in
      match Steiner.Lut.Table.of_string ~name:file data with
      | Error msg ->
        prerr_endline msg;
        1
      | Ok table -> (
        match Steiner_gen.check ~regenerate_upto:6 table with
        | [] ->
          Printf.printf "%s: ok (%d bytes; classes per degree:%s)\n" file
            (String.length data)
            (String.concat ""
               (List.init (Steiner.Lut.max_degree - 1) (fun i ->
                  Printf.sprintf " %d:%d" (i + 2)
                    (Steiner.Lut.Table.class_count table (i + 2)))));
          0
        | problems ->
          List.iter (fun p -> prerr_endline (file ^ ": " ^ p)) problems;
          1))
    | None ->
      let pool = Parallel.create ~domains:!domains () in
      let t0 = Unix.gettimeofday () in
      let degrees =
        Array.init (Steiner.Lut.max_degree + 1) (fun d ->
          if d < 2 then [||]
          else begin
            let t = Unix.gettimeofday () in
            let runs = Steiner_gen.generate_degree ~pool d in
            Printf.printf "degree %d: %d classes, %d bytes, %.1f s\n%!" d
              (Array.length runs)
              (Array.fold_left (fun a (_, r) -> a + String.length r) 0 runs)
              (Unix.gettimeofday () -. t);
            runs
          end)
      in
      Parallel.shutdown pool;
      let data =
        match Steiner.Lut.Table.assemble ~name:!out degrees with
        | Ok t -> Steiner.Lut.Table.to_string t
        | Error msg -> failwith msg
      in
      let tmp = !out ^ ".tmp" in
      Out_channel.with_open_bin tmp (fun oc -> output_string oc data);
      Sys.rename tmp !out;
      Printf.printf "wrote %s: %d bytes in %.1f s with %d domain(s)\n" !out
        (String.length data)
        (Unix.gettimeofday () -. t0)
        !domains;
      0
  in
  exit status
