(* Tests for table rendering and the published reference numbers. *)

let test_table_render () =
  let t = Report.Table.create [ "a"; "long header" ] in
  Report.Table.add_row t [ "x"; "1" ];
  Report.Table.add_row t [ "longer cell"; "2" ];
  let s = Report.Table.render t in
  let lines = String.split_on_char '\n' s in
  (match lines with
   | header :: rule :: _ ->
     Alcotest.(check bool) "rule has dashes" true (String.contains rule '-');
     Alcotest.(check bool) "header first" true
       (String.length header >= String.length "a  long header")
   | _ -> Alcotest.fail "expected at least two lines");
  (* all rendered lines align to the same width *)
  let widths =
    List.filter_map
      (fun l -> if l = "" then None else Some (String.length l))
      lines
  in
  (match widths with
   | w :: rest -> List.iter (fun x -> Alcotest.(check int) "aligned" w x) rest
   | [] -> Alcotest.fail "no lines")

let test_table_arity () =
  let t = Report.Table.create [ "a"; "b" ] in
  match Report.Table.add_row t [ "only one" ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected arity check"

let test_csv_escaping () =
  let t = Report.Table.create [ "name"; "value" ] in
  Report.Table.add_row t [ "with,comma"; "with\"quote" ];
  let csv = Report.Table.render_csv t in
  Alcotest.(check bool) "comma quoted" true
    (String.length csv > 0
     && (let lines = String.split_on_char '\n' csv in
         List.exists
           (fun l -> l = "\"with,comma\",\"with\"\"quote\"")
           lines))

let test_geometric_mean () =
  Alcotest.(check (float 1e-9)) "empty" 0.0 (Report.geometric_mean []);
  Alcotest.(check (float 1e-9)) "single" 4.0 (Report.geometric_mean [ 4.0 ]);
  Alcotest.(check (float 1e-9)) "pair" 2.0 (Report.geometric_mean [ 1.0; 4.0 ]);
  Alcotest.(check (float 1e-6)) "triple" 2.0
    (Report.geometric_mean [ 1.0; 2.0; 4.0 ])

let test_paper_tables () =
  Alcotest.(check int) "table3 rows" 8 (List.length Report.Paper.table3);
  Alcotest.(check int) "table2 rows" 8 (List.length Report.Paper.table2);
  (* the paper's WNS are all negative, ours never worse than both
     baselines per row except superblue5/7 TNS cases noted in the text *)
  List.iter
    (fun (r : Report.Paper.table3_row) ->
      Alcotest.(check bool) (r.Report.Paper.bench ^ " ours best wns") true
        (r.Report.Paper.ours_wns >= r.Report.Paper.dp_wns
         && r.Report.Paper.ours_wns >= r.Report.Paper.nw_wns))
    Report.Paper.table3;
  Alcotest.(check (float 1e-9)) "published ratio" 1.897
    (Report.Paper.avg_ratio_wns `Dreamplace);
  Alcotest.(check (float 1e-9)) "published runtime ratio" 1.807
    (Report.Paper.avg_ratio_runtime `Net_weighting)

let suite =
  [ Alcotest.test_case "table render" `Quick test_table_render;
    Alcotest.test_case "table arity" `Quick test_table_arity;
    Alcotest.test_case "csv escaping" `Quick test_csv_escaping;
    Alcotest.test_case "geometric mean" `Quick test_geometric_mean;
    Alcotest.test_case "paper reference tables" `Quick test_paper_tables ]
