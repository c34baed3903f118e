module Table = struct
  type t = {
    headers : string list;
    arity : int;
    mutable rows : string list list;  (* reverse order *)
  }

  let create headers =
    { headers; arity = List.length headers; rows = [] }

  let add_row t row =
    if List.length row <> t.arity then
      invalid_arg "Report.Table.add_row: arity mismatch";
    t.rows <- row :: t.rows

  let columns t = t.headers :: List.rev t.rows

  let widths t =
    let w = Array.make t.arity 0 in
    List.iter
      (List.iteri (fun i cell -> w.(i) <- max w.(i) (String.length cell)))
      (columns t);
    w

  let render t =
    let w = widths t in
    let b = Buffer.create 1024 in
    let line cells =
      List.iteri
        (fun i cell ->
          if i > 0 then Buffer.add_string b "  ";
          Buffer.add_string b cell;
          Buffer.add_string b (String.make (w.(i) - String.length cell) ' '))
        cells;
      Buffer.add_char b '\n'
    in
    line t.headers;
    Buffer.add_string b
      (String.concat "  " (Array.to_list (Array.map (fun n -> String.make n '-') w)));
    Buffer.add_char b '\n';
    List.iter line (List.rev t.rows);
    Buffer.contents b

  let render_csv t =
    let escape cell =
      if String.contains cell ',' || String.contains cell '"' then
        "\"" ^ String.concat "\"\"" (String.split_on_char '"' cell) ^ "\""
      else cell
    in
    String.concat "\n"
      (List.map (fun row -> String.concat "," (List.map escape row)) (columns t))
    ^ "\n"
end

let geometric_mean values =
  match values with
  | [] -> 0.0
  | _ :: _ ->
    let log_sum =
      List.fold_left (fun acc v -> acc +. log (Float.max 1e-30 v)) 0.0 values
    in
    exp (log_sum /. float_of_int (List.length values))

let ratio_string r = Printf.sprintf "%.3f" r

module Paper = struct
  type table3_row = {
    bench : string;
    dp_wns : float;
    dp_tns : float;
    dp_hpwl : float;
    dp_runtime : float;
    nw_wns : float;
    nw_tns : float;
    nw_hpwl : float;
    nw_runtime : float;
    ours_wns : float;
    ours_tns : float;
    ours_hpwl : float;
    ours_runtime : float;
  }

  (* Table 3 of the paper, verbatim. WNS in 10^3 ps, TNS in 10^5 ps,
     HPWL in 10^6, runtime in seconds. *)
  let table3 =
    [ { bench = "superblue1";
        dp_wns = -18.866; dp_tns = -262.441; dp_hpwl = 422.0; dp_runtime = 79.48;
        nw_wns = -14.103; nw_tns = -85.032; nw_hpwl = 443.1; nw_runtime = 471.77;
        ours_wns = -10.770; ours_tns = -74.854; ours_hpwl = 423.8; ours_runtime = 268.31 };
      { bench = "superblue3";
        dp_wns = -27.648; dp_tns = -76.644; dp_hpwl = 478.2; dp_runtime = 72.96;
        nw_wns = -16.434; nw_tns = -54.742; nw_hpwl = 482.4; nw_runtime = 451.22;
        ours_wns = -12.374; ours_tns = -39.430; ours_hpwl = 478.4; ours_runtime = 266.65 };
      { bench = "superblue4";
        dp_wns = -22.041; dp_tns = -290.881; dp_hpwl = 312.0; dp_runtime = 52.21;
        nw_wns = -12.781; nw_tns = -144.380; nw_hpwl = 335.9; nw_runtime = 283.64;
        ours_wns = -8.492; ours_tns = -82.924; ours_hpwl = 312.2; ours_runtime = 156.36 };
      { bench = "superblue5";
        dp_wns = -48.918; dp_tns = -157.816; dp_hpwl = 488.3; dp_runtime = 116.69;
        nw_wns = -26.760; nw_tns = -95.782; nw_hpwl = 556.2; nw_runtime = 772.75;
        ours_wns = -25.212; ours_tns = -108.076; ours_hpwl = 488.7; ours_runtime = 259.26 };
      { bench = "superblue7";
        dp_wns = -19.751; dp_tns = -141.548; dp_hpwl = 604.3; dp_runtime = 125.57;
        nw_wns = -15.216; nw_tns = -63.863; nw_hpwl = 604.0; nw_runtime = 774.32;
        ours_wns = -15.216; ours_tns = -46.426; ours_hpwl = 602.1; ours_runtime = 450.85 };
      { bench = "superblue10";
        dp_wns = -26.099; dp_tns = -731.941; dp_hpwl = 935.9; dp_runtime = 205.92;
        nw_wns = -31.880; nw_tns = -768.748; nw_hpwl = 1036.7; nw_runtime = 859.28;
        ours_wns = -21.974; ours_tns = -558.054; ours_hpwl = 934.4; ours_runtime = 465.24 };
      { bench = "superblue16";
        dp_wns = -17.711; dp_tns = -453.566; dp_hpwl = 435.8; dp_runtime = 63.59;
        nw_wns = -12.112; nw_tns = -124.181; nw_hpwl = 448.1; nw_runtime = 335.10;
        ours_wns = -10.854; ours_tns = -87.026; ours_hpwl = 485.1; ours_runtime = 217.65 };
      { bench = "superblue18";
        dp_wns = -20.288; dp_tns = -96.756; dp_hpwl = 243.0; dp_runtime = 27.55;
        nw_wns = -11.871; nw_tns = -47.246; nw_hpwl = 253.6; nw_runtime = 174.07;
        ours_wns = -7.987; ours_tns = -19.314; ours_hpwl = 243.6; ours_runtime = 156.99 } ]

  type table2_row = { t2_bench : string; t2_cells : int; t2_nets : int; t2_pins : int }

  let table2 =
    [ { t2_bench = "superblue1"; t2_cells = 1209716; t2_nets = 1215710; t2_pins = 3767494 };
      { t2_bench = "superblue3"; t2_cells = 1213253; t2_nets = 1224979; t2_pins = 3905321 };
      { t2_bench = "superblue4"; t2_cells = 795645; t2_nets = 802513; t2_pins = 2497940 };
      { t2_bench = "superblue5"; t2_cells = 1086888; t2_nets = 1100825; t2_pins = 3246878 };
      { t2_bench = "superblue7"; t2_cells = 1931639; t2_nets = 1933945; t2_pins = 6372094 };
      { t2_bench = "superblue10"; t2_cells = 1876103; t2_nets = 1898119; t2_pins = 5560506 };
      { t2_bench = "superblue16"; t2_cells = 981559; t2_nets = 999902; t2_pins = 3013268 };
      { t2_bench = "superblue18"; t2_cells = 768068; t2_nets = 771542; t2_pins = 2559143 } ]

  let avg_ratio_wns = function `Dreamplace -> 1.897 | `Net_weighting -> 1.282
  let avg_ratio_tns = function `Dreamplace -> 3.125 | `Net_weighting -> 1.472

  let avg_ratio_runtime = function
    | `Dreamplace -> 0.318
    | `Net_weighting -> 1.807
end
