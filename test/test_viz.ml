(* Tests for placement visualisation. *)

let lib = Liberty.Synthetic.default ()

let sample () =
  let design, cons =
    Workload.generate lib
      { Workload.default_spec with Workload.sp_cells = 150 }
  in
  (design, Sta.Graph.build design lib cons)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec scan i = i + m <= n && (String.sub s i m = sub || scan (i + 1)) in
  m = 0 || scan 0

let test_svg_basics () =
  let design, _ = sample () in
  let svg = Viz.Svg.render design in
  Alcotest.(check bool) "is svg" true (contains svg "<svg");
  Alcotest.(check bool) "closes" true (contains svg "</svg>");
  (* one rect per cell plus the frame *)
  let rects = ref 0 in
  String.iteri
    (fun i c ->
      if c = '<' && i + 5 <= String.length svg && String.sub svg i 5 = "<rect"
      then incr rects)
    svg;
  Alcotest.(check int) "rect count" (Netlist.num_cells design + 1) !rects

let test_svg_nets_and_path () =
  let design, graph = sample () in
  let timer = Sta.Timer.create graph in
  let _ = Sta.Timer.run timer in
  let path = Test_sta.critical_path timer in
  Alcotest.(check bool) "have a path" true (path <> []);
  let options =
    { Viz.Svg.default_options with
      Viz.Svg.draw_nets = true; highlight_path = path }
  in
  let svg = Viz.Svg.render ~options design in
  Alcotest.(check bool) "fly-lines drawn" true (contains svg "<line");
  Alcotest.(check bool) "path overlay drawn" true (contains svg "<polyline");
  (* without options, neither appears *)
  let plain = Viz.Svg.render design in
  Alcotest.(check bool) "no lines by default" false (contains plain "<line")

let test_svg_save () =
  let design, _ = sample () in
  let path = Filename.temp_file "dgp_viz" ".svg" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Viz.Svg.save path design;
      let content = In_channel.with_open_text path In_channel.input_all in
      Alcotest.(check bool) "saved" true (contains content "</svg>"))

let suite =
  [ Alcotest.test_case "svg basics" `Quick test_svg_basics;
    Alcotest.test_case "svg nets and path" `Quick test_svg_nets_and_path;
    Alcotest.test_case "svg save" `Quick test_svg_save ]
