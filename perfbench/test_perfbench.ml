(* Tests of the benchmark itself: its output checks catch a broken
   placement and a tampered dgp_serve reply, and a smoke-sized run of
   every workload completes with all checks passing.

   Arguments: the flowbench and dgp_serve executables. *)

let flowbench = ref ""
let serve = ref ""
let lib = Liberty.Synthetic.default ()

let small_design () =
  let spec =
    match Workload.find_spec ~scale:0.0008 "superblue18-mini" with
    | Some s -> s
    | None -> failwith "missing spec"
  in
  Workload.generate lib spec

let test_overlap () =
  let d, _ = small_design () in
  ignore (Legalize.legalize d);
  Alcotest.(check (list string)) "legalized placement is legal" [] (Checks.legality d);
  (* put a second cell of the same width on top of the first *)
  let cells = Array.of_list (Netlist.movable_cells d) in
  let a = d.Netlist.cells.(cells.(0)) in
  let b = d.Netlist.cells.(cells.(1)) in
  b.Netlist.x <- a.Netlist.x;
  b.Netlist.y <- a.Netlist.y;
  let t = Checks.tally () in
  Checks.record t (Checks.legality d);
  Alcotest.(check int) "overlap counted as a failed operation" 1 t.Checks.failed

(* Start dgp_serve on a written design, move one cell, commit, and
   verify the real reply against a full analysis; then tamper with one
   digit of it. *)
let test_tampered_commit () =
  let d, c = small_design () in
  ignore (Legalize.legalize d);
  let file = "tampered.design" in
  Bookshelf.save file d c;
  let rd, rc = Bookshelf.load lib file in
  let reference = Sta.Timer.create (Sta.Graph.build rd lib rc) in
  ignore (Sta.Timer.run reference);
  let id = List.hd (Netlist.movable_cells rd) in
  let cell = rd.Netlist.cells.(id) in
  let x = cell.Netlist.x +. rd.Netlist.row_height and y = cell.Netlist.y in
  let to_d, from_d =
    Unix.open_process_args !serve [| !serve; "--design"; file |] |> fun (i, o) -> (o, i)
  in
  let ask line =
    output_string to_d (line ^ "\n");
    flush to_d;
    input_line from_d
  in
  let moved = ask (Printf.sprintf "move %d %.17g %.17g" id x y) in
  let reply = ask "commit" in
  ignore (ask "quit");
  ignore (Unix.close_process (from_d, to_d));
  Sys.remove file;
  Alcotest.(check bool) "move accepted" true (String.starts_with ~prefix:"ok" moved);
  cell.Netlist.x <- x;
  cell.Netlist.y <- y;
  let full = Sta.Timer.run ~rebuild_trees:false reference in
  let t = Checks.tally () in
  Checks.record t (Checks.check_commit ~reference:full reply);
  Alcotest.(check int) "genuine reply passes" 0 t.Checks.failed;
  let tampered =
    String.mapi (fun i ch -> if i = 9 then (if ch = '9' then '8' else '9') else ch) reply
  in
  Checks.record t (Checks.check_commit ~reference:full tampered);
  Alcotest.(check int) "tampered reply counted as a failed operation" 1 t.Checks.failed

let smoke workload () =
  let out = "smoke-" ^ workload in
  if not (Sys.file_exists out) then Sys.mkdir out 0o755;
  let ic =
    Unix.open_process_args_in !flowbench
      [| !flowbench; "--workload"; workload; "--seed"; "3"; "--trace"; "1"; "--out"; out;
         "--serve"; !serve; "--smoke" |]
  in
  let lines = In_channel.input_lines ic in
  let status = Unix.close_process_in ic in
  Alcotest.(check bool) "exit 0" true (status = Unix.WEXITED 0);
  let last = List.nth lines (List.length lines - 1) in
  Alcotest.(check bool) "all checks pass" true
    (String.starts_with ~prefix:"{\"correct\": true" last);
  Alcotest.(check bool) "ledger written" true
    (Sys.file_exists (Filename.concat out (workload ^ ".jsonl")))

let () =
  let abs p = if Filename.is_relative p then Filename.concat (Sys.getcwd ()) p else p in
  flowbench := abs Sys.argv.(1);
  serve := abs Sys.argv.(2);
  Alcotest.run ~argv:[| Sys.argv.(0) |] "perfbench"
    [ ( "checks",
        [ Alcotest.test_case "overlapped cells fail legality" `Quick test_overlap;
          Alcotest.test_case "tampered commit reply fails" `Quick test_tampered_commit ] );
      ( "smoke",
        List.map
          (fun w -> Alcotest.test_case w `Slow (smoke w))
          [ "flow-timing"; "flow-vcycle"; "serve-whatif" ] ) ]
