module Svg = struct
  type options = {
    width_px : int;
    draw_nets : bool;
    max_net_degree : int;
    highlight_path : Sta.Timer.path_step list;
    highlight_paths : Sta.Timer.path_step list list;
    congestion : (int * float array) option;
  }

  let default_options =
    { width_px = 800; draw_nets = false; max_net_degree = 8;
      highlight_path = []; highlight_paths = []; congestion = None }

  (* worst path red, runners-up fading towards yellow *)
  let path_colors =
    [| "#cc2222"; "#d85a22"; "#e08b2b"; "#e6ad3a"; "#d9c155" |]

  let render ?(options = default_options) (design : Netlist.t) =
    let region = design.Netlist.region in
    let w = Geometry.Rect.width region and h = Geometry.Rect.height region in
    let scale = float_of_int options.width_px /. Float.max 1e-9 w in
    let height_px = int_of_float (Float.ceil (h *. scale)) in
    (* SVG y grows downwards; flip so the origin is bottom-left *)
    let sx x = (x -. region.Geometry.Rect.lx) *. scale in
    let sy y = (region.Geometry.Rect.hy -. y) *. scale in
    let b = Buffer.create (1 lsl 16) in
    Buffer.add_string b
      (Printf.sprintf
         "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"%d\" \
          height=\"%d\" viewBox=\"0 0 %d %d\">\n"
         options.width_px height_px options.width_px height_px);
    Buffer.add_string b
      (Printf.sprintf
         "<rect x=\"0\" y=\"0\" width=\"%d\" height=\"%d\" fill=\"#fafafa\" \
          stroke=\"#444\"/>\n"
         options.width_px height_px);
    (* cells *)
    Array.iter
      (fun (c : Netlist.cell) ->
        let fill =
          if c.Netlist.fixed then "#333333"
          else if c.Netlist.lib_cell >= 0 && c.Netlist.width > 3.5 then
            "#d4886b" (* wide cells: flip-flops in the synthetic library *)
          else "#7a9cc6"
        in
        Buffer.add_string b
          (Printf.sprintf
             "<rect x=\"%.2f\" y=\"%.2f\" width=\"%.2f\" height=\"%.2f\" \
              fill=\"%s\" fill-opacity=\"0.8\" stroke=\"#2a2a2a\" \
              stroke-width=\"0.2\"/>\n"
             (sx (c.Netlist.x -. (c.Netlist.width /. 2.0)))
             (sy (c.Netlist.y +. (c.Netlist.height /. 2.0)))
             (Float.max 1.0 (c.Netlist.width *. scale))
             (Float.max 1.0 (c.Netlist.height *. scale))
             fill))
      design.Netlist.cells;
    (* net fly-lines *)
    if options.draw_nets then
      Array.iter
        (fun (net : Netlist.net) ->
          if Array.length net.Netlist.net_pins <= options.max_net_degree then
            match Netlist.net_driver design net.Netlist.net_id with
            | None -> ()
            | Some drv ->
              let dx = sx (Netlist.pin_x design drv)
              and dy = sy (Netlist.pin_y design drv) in
              List.iter
                (fun s ->
                  Buffer.add_string b
                    (Printf.sprintf
                       "<line x1=\"%.2f\" y1=\"%.2f\" x2=\"%.2f\" \
                        y2=\"%.2f\" stroke=\"#88aa88\" stroke-width=\"0.4\" \
                        stroke-opacity=\"0.5\"/>\n"
                       dx dy
                       (sx (Netlist.pin_x design s))
                       (sy (Netlist.pin_y design s))))
                (Netlist.net_sinks design net.Netlist.net_id))
        design.Netlist.nets;
    (* congestion heatmap: translucent red squares over bins whose
       utilization clears a floor, deeper red as utilization grows;
       drawn above the cells but below the path overlays *)
    (match options.congestion with
     | Some (n, util) when n > 0 && Array.length util = n * n ->
       let bw = w /. float_of_int n and bh = h /. float_of_int n in
       for bx = 0 to n - 1 do
         for by = 0 to n - 1 do
           let u = util.((bx * n) + by) in
           if u >= 0.5 then begin
             let blx = region.Geometry.Rect.lx +. (float_of_int bx *. bw) in
             let bly = region.Geometry.Rect.ly +. (float_of_int by *. bh) in
             let opacity = 0.12 +. (0.48 *. Float.min 1.0 (u /. 2.0)) in
             Buffer.add_string b
               (Printf.sprintf
                  "<rect x=\"%.2f\" y=\"%.2f\" width=\"%.2f\" \
                   height=\"%.2f\" fill=\"#d01818\" fill-opacity=\"%.3f\"/>\n"
                  (sx blx)
                  (sy (bly +. bh))
                  (bw *. scale) (bh *. scale) opacity)
           end
         done
       done
     | _ -> ());
    (* critical path overlays: [highlight_paths] worst-first (so the
       worst path draws last, on top), then the legacy single-path
       field in red *)
    let draw_path color width steps =
      match steps with
      | [] -> ()
      | steps ->
        let points =
          List.map
            (fun (s : Sta.Timer.path_step) ->
              Printf.sprintf "%.2f,%.2f"
                (sx (Netlist.pin_x design s.Sta.Timer.ps_pin))
                (sy (Netlist.pin_y design s.Sta.Timer.ps_pin)))
            steps
        in
        Buffer.add_string b
          (Printf.sprintf
             "<polyline points=\"%s\" fill=\"none\" stroke=\"%s\" \
              stroke-width=\"%.1f\"/>\n"
             (String.concat " " points) color width)
    in
    let ranked = List.mapi (fun i steps -> (i, steps)) options.highlight_paths in
    List.iter
      (fun (i, steps) ->
        let color = path_colors.(min i (Array.length path_colors - 1)) in
        draw_path color (Float.max 0.7 (1.5 -. (0.2 *. float_of_int i))) steps)
      (List.rev ranked);
    draw_path "#cc2222" 1.5 options.highlight_path;
    Buffer.add_string b "</svg>\n";
    Buffer.contents b

  let save ?options path design =
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc (render ?options design))
end
