module Lut = struct
  type t = {
    x_axis : float array;
    y_axis : float array;
    values : float array;
  }

  let check_axis name (axis : float array) =
    if Array.length axis = 0 then
      invalid_arg (Printf.sprintf "Liberty.Lut: empty %s axis" name);
    for i = 0 to Array.length axis - 2 do
      if axis.(i) >= axis.(i + 1) then
        invalid_arg (Printf.sprintf "Liberty.Lut: %s axis not increasing" name)
    done

  let make ~x_axis ~y_axis ~values =
    check_axis "x" x_axis;
    check_axis "y" y_axis;
    if Array.length values <> Array.length x_axis * Array.length y_axis then
      invalid_arg "Liberty.Lut: values size mismatch";
    { x_axis; y_axis; values }

  let of_function ~x_axis ~y_axis f =
    let ny = Array.length y_axis in
    let values =
      Array.init
        (Array.length x_axis * ny)
        (fun k -> f x_axis.(k / ny) y_axis.(k mod ny))
    in
    make ~x_axis ~y_axis ~values

  (* Segment selection: the index [i] of the cell [axis.(i) .. axis.(i+1)]
     containing [v], clamped to boundary segments so that out-of-range
     queries extrapolate linearly.  A length-1 axis yields index -1,
     meaning "no variation along this axis".  [axis] is typed so that
     the comparisons are float ones: a polymorphic compare boxes both
     operands. *)
  let segment (axis : float array) v =
    let n = Array.length axis in
    if n = 1 then -1
    else if v <= axis.(0) then 0
    else if v >= axis.(n - 1) then n - 2
    else begin
      (* invariant: axis.(lo) <= v < axis.(hi) conceptually *)
      let lo = ref 0 and hi = ref (n - 1) in
      while !hi - !lo > 1 do
        let mid = (!lo + !hi) / 2 in
        if v < axis.(mid) then hi := mid else lo := mid
      done;
      !lo
    end

  (* The interpolation on segment [(i, j)], written to [out] at [o]: the
     value alone, or with [grad] the value and both partials.  Keep the
     order of the arithmetic: every timer's pinned output depends on
     its bits. *)
  let interp t i j x y ~grad out o =
    let ny = Array.length t.y_axis in
    if i < 0 && j < 0 then begin
      out.(o) <- t.values.(0);
      if grad then begin
        out.(o + 1) <- 0.0;
        out.(o + 2) <- 0.0
      end
    end
    else if i < 0 then begin
      let y0 = t.y_axis.(j) and y1 = t.y_axis.(j + 1) in
      let v0 = t.values.(j) and v1 = t.values.(j + 1) in
      let slope = (v1 -. v0) /. (y1 -. y0) in
      out.(o) <- v0 +. (slope *. (y -. y0));
      if grad then begin
        out.(o + 1) <- 0.0;
        out.(o + 2) <- slope
      end
    end
    else if j < 0 then begin
      let x0 = t.x_axis.(i) and x1 = t.x_axis.(i + 1) in
      let v0 = t.values.(i * ny) and v1 = t.values.((i + 1) * ny) in
      let slope = (v1 -. v0) /. (x1 -. x0) in
      out.(o) <- v0 +. (slope *. (x -. x0));
      if grad then begin
        out.(o + 1) <- slope;
        out.(o + 2) <- 0.0
      end
    end
    else begin
      let x0 = t.x_axis.(i) and x1 = t.x_axis.(i + 1) in
      let y0 = t.y_axis.(j) and y1 = t.y_axis.(j + 1) in
      let v00 = t.values.((i * ny) + j) in
      let v01 = t.values.((i * ny) + j + 1) in
      let v10 = t.values.(((i + 1) * ny) + j) in
      let v11 = t.values.(((i + 1) * ny) + j + 1) in
      let tx = (x -. x0) /. (x1 -. x0) in
      let ty = (y -. y0) /. (y1 -. y0) in
      out.(o) <-
        (v00 *. (1.0 -. tx) *. (1.0 -. ty))
        +. (v10 *. tx *. (1.0 -. ty))
        +. (v01 *. (1.0 -. tx) *. ty)
        +. (v11 *. tx *. ty);
      if grad then begin
        out.(o + 1) <-
          (((v10 -. v00) *. (1.0 -. ty)) +. ((v11 -. v01) *. ty)) /. (x1 -. x0);
        out.(o + 2) <-
          (((v01 -. v00) *. (1.0 -. tx)) +. ((v11 -. v10) *. tx)) /. (y1 -. y0)
      end
    end

  let eval t x y out o =
    interp t (segment t.x_axis x) (segment t.y_axis y) x y ~grad:true out o

  let eval_pair ~grad a b x y out o =
    let ob = if grad then o + 3 else o + 1 in
    let i = segment a.x_axis x and j = segment a.y_axis y in
    interp a i j x y ~grad out o;
    if a.x_axis == b.x_axis && a.y_axis == b.y_axis then
      interp b i j x y ~grad out ob
    else interp b (segment b.x_axis x) (segment b.y_axis y) x y ~grad out ob

  let lookup t x y =
    let out = [| 0.0 |] in
    interp t (segment t.x_axis x) (segment t.y_axis y) x y ~grad:false out 0;
    out.(0)
end

type pin_direction = Lib_input | Lib_output
type sense = Positive_unate | Negative_unate | Non_unate

type timing_arc = {
  arc_from : int;
  arc_to : int;
  sense : sense;
  cell_rise : Lut.t;
  cell_fall : Lut.t;
  rise_transition : Lut.t;
  fall_transition : Lut.t;
}

type check_arc = {
  check_data : int;
  check_clock : int;
  setup_rise : Lut.t;
  setup_fall : Lut.t;
  hold_rise : Lut.t;
  hold_fall : Lut.t;
}

type lib_pin = {
  lp_name : string;
  lp_direction : pin_direction;
  lp_capacitance : float;
  lp_is_clock : bool;
}

type lib_cell = {
  lc_name : string;
  lc_area : float;
  lc_width : float;
  lc_height : float;
  lc_pins : lib_pin array;
  lc_arcs : timing_arc array;
  lc_checks : check_arc array;
  lc_is_sequential : bool;
}

type t = {
  lib_name : string;
  r_unit : float;
  c_unit : float;
  default_slew : float;
  lib_cells : lib_cell array;
}

let cell_index lib name =
  let n = Array.length lib.lib_cells in
  let rec loop i =
    if i >= n then None
    else if String.equal lib.lib_cells.(i).lc_name name then Some i
    else loop (i + 1)
  in
  loop 0

let find_cell lib name =
  Option.map (fun i -> lib.lib_cells.(i)) (cell_index lib name)

let pin_index cell name =
  let n = Array.length cell.lc_pins in
  let rec loop i =
    if i >= n then None
    else if String.equal cell.lc_pins.(i).lp_name name then Some i
    else loop (i + 1)
  in
  loop 0

let pins_where pred cell =
  Array.to_list (Array.mapi (fun i p -> (i, p)) cell.lc_pins)
  |> List.filter_map (fun (i, p) -> if pred p then Some i else None)

let output_pins = pins_where (fun p -> p.lp_direction = Lib_output)
let input_pins = pins_where (fun p -> p.lp_direction = Lib_input)

module Synthetic = struct
  (* The analytic model sampled into the LUTs.  The cross term saturates
     with slew, giving genuine curvature so bilinear interpolation (and
     its gradient) is exercised away from the exact grid points. *)
  let delay_model ~drive_r ~intrinsic ~slew_sensitivity slew load =
    intrinsic
    +. (drive_r *. load)
    +. (slew_sensitivity *. slew)
    +. (0.5 *. drive_r *. load *. slew /. (slew +. 40.0))

  let transition_model ~drive_r ~floor slew load =
    floor +. (1.6 *. drive_r *. load) +. (0.15 *. slew)

  let slew_axis = [| 2.0; 5.0; 10.0; 20.0; 40.0; 80.0; 160.0 |]
  let load_axis = [| 0.5; 1.0; 2.0; 4.0; 8.0; 16.0; 32.0 |]

  let delay_lut ~drive_r ~intrinsic ~slew_sensitivity =
    Lut.of_function ~x_axis:slew_axis ~y_axis:load_axis
      (delay_model ~drive_r ~intrinsic ~slew_sensitivity)

  let transition_lut ~drive_r ~floor =
    Lut.of_function ~x_axis:slew_axis ~y_axis:load_axis
      (transition_model ~drive_r ~floor)

  (* Rise and fall tables are skewed slightly apart (NMOS vs PMOS
     asymmetry) so rise/fall propagation is observable in tests. *)
  let arc ~from_ ~to_ ~sense ~drive_r ~intrinsic ~slew_sensitivity =
    { arc_from = from_;
      arc_to = to_;
      sense;
      cell_rise = delay_lut ~drive_r:(drive_r *. 1.05) ~intrinsic ~slew_sensitivity;
      cell_fall =
        delay_lut ~drive_r:(drive_r *. 0.95) ~intrinsic:(intrinsic *. 0.92)
          ~slew_sensitivity;
      rise_transition = transition_lut ~drive_r:(drive_r *. 1.05) ~floor:6.0;
      fall_transition = transition_lut ~drive_r:(drive_r *. 0.95) ~floor:5.0 }

  let in_pin ?(clock = false) name cap =
    { lp_name = name; lp_direction = Lib_input; lp_capacitance = cap;
      lp_is_clock = clock }

  let out_pin name =
    { lp_name = name; lp_direction = Lib_output; lp_capacitance = 0.0;
      lp_is_clock = false }

  (* A combinational cell: all inputs drive the single output [Y].
     Successive inputs are marginally slower, as in real libraries. *)
  let comb ~name ~width ~inputs ~sense ~drive_r ~intrinsic ~cap =
    let n = List.length inputs in
    let pins =
      Array.of_list (List.map (fun i -> in_pin i cap) inputs @ [ out_pin "Y" ])
    in
    let arcs =
      Array.init n (fun i ->
        let penalty = 1.0 +. (0.08 *. float_of_int i) in
        arc ~from_:i ~to_:n ~sense ~drive_r
          ~intrinsic:(intrinsic *. penalty) ~slew_sensitivity:0.12)
    in
    { lc_name = name; lc_area = width *. 1.4; lc_width = width;
      lc_height = 1.4; lc_pins = pins; lc_arcs = arcs; lc_checks = [||];
      lc_is_sequential = false }

  let setup_lut s0 =
    Lut.of_function ~x_axis:slew_axis ~y_axis:slew_axis
      (fun data_slew clock_slew ->
        s0 +. (0.30 *. data_slew) +. (0.10 *. clock_slew))

  let hold_lut h0 =
    Lut.of_function ~x_axis:slew_axis ~y_axis:slew_axis
      (fun data_slew clock_slew ->
        h0 +. (0.05 *. data_slew) +. (0.02 *. clock_slew))

  let dff ~name ~width ~drive_r ~intrinsic =
    (* pins: D = 0, CK = 1, Q = 2 *)
    let pins =
      [| in_pin "D" 1.8; in_pin ~clock:true "CK" 1.2; out_pin "Q" |]
    in
    let launch =
      arc ~from_:1 ~to_:2 ~sense:Non_unate ~drive_r ~intrinsic
        ~slew_sensitivity:0.05
    in
    let check =
      { check_data = 0; check_clock = 1;
        setup_rise = setup_lut 28.0;
        setup_fall = setup_lut 32.0;
        hold_rise = hold_lut 4.0;
        hold_fall = hold_lut 5.0 }
    in
    { lc_name = name; lc_area = width *. 1.4; lc_width = width;
      lc_height = 1.4; lc_pins = pins; lc_arcs = [| launch |];
      lc_checks = [| check |]; lc_is_sequential = true }

  let default () =
    let inv n r d w =
      comb ~name:n ~width:w ~inputs:[ "A" ] ~sense:Negative_unate ~drive_r:r
        ~intrinsic:d ~cap:(3.0 /. r)
    in
    let buf n r d w =
      comb ~name:n ~width:w ~inputs:[ "A" ] ~sense:Positive_unate ~drive_r:r
        ~intrinsic:d ~cap:(2.4 /. r)
    in
    let cells =
      [| inv "INV_X1" 2.0 12.0 0.8;
         inv "INV_X2" 1.0 11.0 1.2;
         inv "INV_X4" 0.5 10.0 2.0;
         buf "BUF_X1" 2.0 24.0 1.2;
         buf "BUF_X2" 1.0 22.0 1.8;
         buf "BUF_X4" 0.5 20.0 2.8;
         comb ~name:"NAND2_X1" ~width:1.2 ~inputs:[ "A"; "B" ]
           ~sense:Negative_unate ~drive_r:2.2 ~intrinsic:14.0 ~cap:1.6;
         comb ~name:"NAND2_X2" ~width:1.8 ~inputs:[ "A"; "B" ]
           ~sense:Negative_unate ~drive_r:1.1 ~intrinsic:13.0 ~cap:3.2;
         comb ~name:"NOR2_X1" ~width:1.2 ~inputs:[ "A"; "B" ]
           ~sense:Negative_unate ~drive_r:2.6 ~intrinsic:16.0 ~cap:1.7;
         comb ~name:"NOR2_X2" ~width:1.8 ~inputs:[ "A"; "B" ]
           ~sense:Negative_unate ~drive_r:1.3 ~intrinsic:15.0 ~cap:3.4;
         comb ~name:"AND2_X1" ~width:1.5 ~inputs:[ "A"; "B" ]
           ~sense:Positive_unate ~drive_r:2.2 ~intrinsic:27.0 ~cap:1.5;
         comb ~name:"OR2_X1" ~width:1.5 ~inputs:[ "A"; "B" ]
           ~sense:Positive_unate ~drive_r:2.4 ~intrinsic:29.0 ~cap:1.5;
         comb ~name:"XOR2_X1" ~width:2.2 ~inputs:[ "A"; "B" ]
           ~sense:Non_unate ~drive_r:2.4 ~intrinsic:31.0 ~cap:2.1;
         comb ~name:"AOI21_X1" ~width:1.8 ~inputs:[ "A"; "B"; "C" ]
           ~sense:Negative_unate ~drive_r:2.8 ~intrinsic:18.0 ~cap:1.8;
         comb ~name:"OAI21_X1" ~width:1.8 ~inputs:[ "A"; "B"; "C" ]
           ~sense:Negative_unate ~drive_r:2.8 ~intrinsic:19.0 ~cap:1.8;
         comb ~name:"MUX2_X1" ~width:2.4 ~inputs:[ "A"; "B"; "S" ]
           ~sense:Non_unate ~drive_r:2.5 ~intrinsic:33.0 ~cap:1.9;
         dff ~name:"DFF_X1" ~width:4.2 ~drive_r:2.0 ~intrinsic:45.0;
         dff ~name:"DFF_X2" ~width:5.2 ~drive_r:1.0 ~intrinsic:40.0 |]
    in
    { lib_name = "synth45";
      r_unit = 0.02;   (* 20 Ohm / um *)
      c_unit = 0.25;   (* 0.25 fF / um *)
      default_slew = 15.0;
      lib_cells = cells }
end

module Io = struct
  (* ---- writer ---- *)

  let float_str f =
    if Float.is_integer f && Float.abs f < 1e15 then
      Printf.sprintf "%.0f" f
    else Printf.sprintf "%.17g" f

  let buf_lut b name (lut : Lut.t) =
    Buffer.add_string b (Printf.sprintf "      %s {\n        x" name);
    Array.iter (fun v -> Buffer.add_string b (" " ^ float_str v)) lut.Lut.x_axis;
    Buffer.add_string b ";\n        y";
    Array.iter (fun v -> Buffer.add_string b (" " ^ float_str v)) lut.Lut.y_axis;
    Buffer.add_string b ";\n        values";
    Array.iter (fun v -> Buffer.add_string b (" " ^ float_str v)) lut.Lut.values;
    Buffer.add_string b ";\n      }\n"

  let sense_str = function
    | Positive_unate -> "positive_unate"
    | Negative_unate -> "negative_unate"
    | Non_unate -> "non_unate"

  let to_string lib =
    let b = Buffer.create 65536 in
    Buffer.add_string b (Printf.sprintf "library \"%s\" {\n" lib.lib_name);
    Buffer.add_string b (Printf.sprintf "  r_unit %s;\n" (float_str lib.r_unit));
    Buffer.add_string b (Printf.sprintf "  c_unit %s;\n" (float_str lib.c_unit));
    Buffer.add_string b
      (Printf.sprintf "  default_slew %s;\n" (float_str lib.default_slew));
    Array.iter
      (fun c ->
        Buffer.add_string b (Printf.sprintf "  cell \"%s\" {\n" c.lc_name);
        Buffer.add_string b
          (Printf.sprintf "    area %s; width %s; height %s; sequential %b;\n"
             (float_str c.lc_area) (float_str c.lc_width)
             (float_str c.lc_height) c.lc_is_sequential);
        Array.iter
          (fun p ->
            Buffer.add_string b
              (Printf.sprintf
                 "    pin \"%s\" { direction %s; capacitance %s; clock %b; }\n"
                 p.lp_name
                 (match p.lp_direction with
                  | Lib_input -> "input"
                  | Lib_output -> "output")
                 (float_str p.lp_capacitance) p.lp_is_clock))
          c.lc_pins;
        Array.iter
          (fun a ->
            Buffer.add_string b
              (Printf.sprintf "    arc \"%s\" -> \"%s\" {\n      sense %s;\n"
                 c.lc_pins.(a.arc_from).lp_name c.lc_pins.(a.arc_to).lp_name
                 (sense_str a.sense));
            buf_lut b "cell_rise" a.cell_rise;
            buf_lut b "cell_fall" a.cell_fall;
            buf_lut b "rise_transition" a.rise_transition;
            buf_lut b "fall_transition" a.fall_transition;
            Buffer.add_string b "    }\n")
          c.lc_arcs;
        Array.iter
          (fun ck ->
            Buffer.add_string b
              (Printf.sprintf "    check \"%s\" clocked_by \"%s\" {\n"
                 c.lc_pins.(ck.check_data).lp_name
                 c.lc_pins.(ck.check_clock).lp_name);
            buf_lut b "setup_rise" ck.setup_rise;
            buf_lut b "setup_fall" ck.setup_fall;
            buf_lut b "hold_rise" ck.hold_rise;
            buf_lut b "hold_fall" ck.hold_fall;
            Buffer.add_string b "    }\n")
          c.lc_checks;
        Buffer.add_string b "  }\n")
      lib.lib_cells;
    Buffer.add_string b "}\n";
    Buffer.contents b

  (* ---- parser (on the shared Parsekit token language) ---- *)

  open Parsekit

  (* Equal axes become one array, so that a delay table and its slew
     table take [Lut.eval_pair]'s one-search path as the synthetic
     library's do.  Axes are compared bit for bit: interning must not
     change the sign of a zero the arithmetic reads. *)
  let axis_interner () =
    let seen = Hashtbl.create 16 in
    fun a ->
      let key = Array.map Int64.bits_of_float a in
      match Hashtbl.find_opt seen key with
      | Some shared -> shared
      | None -> Hashtbl.add seen key a; a

  let parse_lut lx axis =
    eat lx Tlbrace "'{'";
    let x = ref [||] and y = ref [||] and v = ref [||] in
    let rec fields () =
      match peek lx with
      | Trbrace -> advance lx
      | Tident _ ->
        (match ident lx with
         | "x" -> x := axis (numbers_until_semi lx)
         | "y" -> y := axis (numbers_until_semi lx)
         | "values" -> v := numbers_until_semi lx
         | s -> error lx (Printf.sprintf "unknown lut field %S" s));
        fields ()
      | Tstring _ | Tnumber _ | Tlbrace | Tsemi | Tarrow | Teof ->
        error lx "expected lut field or '}'"
    in
    fields ();
    Lut.make ~x_axis:!x ~y_axis:!y ~values:!v

  let parse_sense lx =
    match ident lx with
    | "positive_unate" -> Positive_unate
    | "negative_unate" -> Negative_unate
    | "non_unate" -> Non_unate
    | s -> error lx (Printf.sprintf "unknown sense %S" s)

  let parse_pin lx =
    let name = string_ lx in
    eat lx Tlbrace "'{'";
    let dir = ref Lib_input and cap = ref 0.0 and clock = ref false in
    let rec fields () =
      match peek lx with
      | Trbrace -> advance lx
      | Tident _ ->
        (match ident lx with
         | "direction" ->
           (match ident lx with
            | "input" -> dir := Lib_input
            | "output" -> dir := Lib_output
            | s -> error lx (Printf.sprintf "bad direction %S" s))
         | "capacitance" -> cap := number lx
         | "clock" -> clock := bool_ lx
         | s -> error lx (Printf.sprintf "unknown pin field %S" s));
        eat lx Tsemi "';'";
        fields ()
      | Tstring _ | Tnumber _ | Tlbrace | Tsemi | Tarrow | Teof ->
        error lx "expected pin field or '}'"
    in
    fields ();
    { lp_name = name; lp_direction = !dir; lp_capacitance = !cap;
      lp_is_clock = !clock }

  let required lx what = function
    | Some v -> v
    | None -> error lx (Printf.sprintf "missing %s" what)

  let parse_arc lx axis pin_of =
    let from_name = string_ lx in
    eat lx Tarrow "'->'";
    let to_name = string_ lx in
    eat lx Tlbrace "'{'";
    let sense = ref Non_unate in
    let cr = ref None and cf = ref None and rt = ref None and ft = ref None in
    let rec fields () =
      match peek lx with
      | Trbrace -> advance lx
      | Tident _ ->
        (match ident lx with
         | "sense" -> sense := parse_sense lx; eat lx Tsemi "';'"
         | "cell_rise" -> cr := Some (parse_lut lx axis)
         | "cell_fall" -> cf := Some (parse_lut lx axis)
         | "rise_transition" -> rt := Some (parse_lut lx axis)
         | "fall_transition" -> ft := Some (parse_lut lx axis)
         | s -> error lx (Printf.sprintf "unknown arc field %S" s));
        fields ()
      | Tstring _ | Tnumber _ | Tlbrace | Tsemi | Tarrow | Teof ->
        error lx "expected arc field or '}'"
    in
    fields ();
    { arc_from = pin_of from_name;
      arc_to = pin_of to_name;
      sense = !sense;
      cell_rise = required lx "cell_rise" !cr;
      cell_fall = required lx "cell_fall" !cf;
      rise_transition = required lx "rise_transition" !rt;
      fall_transition = required lx "fall_transition" !ft }

  let parse_check lx axis pin_of =
    let data = string_ lx in
    (match ident lx with
     | "clocked_by" -> ()
     | s -> error lx (Printf.sprintf "expected clocked_by, got %S" s));
    let clock = string_ lx in
    eat lx Tlbrace "'{'";
    let sr = ref None and sf = ref None and hr = ref None and hf = ref None in
    let rec fields () =
      match peek lx with
      | Trbrace -> advance lx
      | Tident _ ->
        (match ident lx with
         | "setup_rise" -> sr := Some (parse_lut lx axis)
         | "setup_fall" -> sf := Some (parse_lut lx axis)
         | "hold_rise" -> hr := Some (parse_lut lx axis)
         | "hold_fall" -> hf := Some (parse_lut lx axis)
         | s -> error lx (Printf.sprintf "unknown check field %S" s));
        fields ()
      | Tstring _ | Tnumber _ | Tlbrace | Tsemi | Tarrow | Teof ->
        error lx "expected check field or '}'"
    in
    fields ();
    { check_data = pin_of data;
      check_clock = pin_of clock;
      setup_rise = required lx "setup_rise" !sr;
      setup_fall = required lx "setup_fall" !sf;
      hold_rise = required lx "hold_rise" !hr;
      hold_fall = required lx "hold_fall" !hf }

  let parse_cell lx axis =
    let name = string_ lx in
    eat lx Tlbrace "'{'";
    let area = ref 0.0 and width = ref 1.0 and height = ref 1.0 in
    let sequential = ref false in
    let pins = ref [] and arcs = ref [] and checks = ref [] in
    let pin_of pname =
      let rec search i = function
        | [] -> error lx (Printf.sprintf "cell %S: unknown pin %S" name pname)
        | p :: rest ->
          if String.equal p.lp_name pname then i else search (i + 1) rest
      in
      search 0 (List.rev !pins)
    in
    let rec fields () =
      match peek lx with
      | Trbrace -> advance lx
      | Tident _ ->
        (match ident lx with
         | "area" -> area := number lx; eat lx Tsemi "';'"
         | "width" -> width := number lx; eat lx Tsemi "';'"
         | "height" -> height := number lx; eat lx Tsemi "';'"
         | "sequential" -> sequential := bool_ lx; eat lx Tsemi "';'"
         | "pin" -> pins := parse_pin lx :: !pins
         | "arc" -> arcs := parse_arc lx axis pin_of :: !arcs
         | "check" -> checks := parse_check lx axis pin_of :: !checks
         | s -> error lx (Printf.sprintf "unknown cell field %S" s));
        fields ()
      | Tstring _ | Tnumber _ | Tlbrace | Tsemi | Tarrow | Teof ->
        error lx "expected cell field or '}'"
    in
    fields ();
    { lc_name = name; lc_area = !area; lc_width = !width; lc_height = !height;
      lc_pins = Array.of_list (List.rev !pins);
      lc_arcs = Array.of_list (List.rev !arcs);
      lc_checks = Array.of_list (List.rev !checks);
      lc_is_sequential = !sequential }

  let of_string ?file src =
    let lx = make_lexer ?file ~what:"liberty" src in
    (match ident lx with
     | "library" -> ()
     | s -> error lx (Printf.sprintf "expected 'library', got %S" s));
    let name = string_ lx in
    eat lx Tlbrace "'{'";
    let r_unit = ref 0.02 and c_unit = ref 0.25 and default_slew = ref 15.0 in
    let cells = ref [] and axis = axis_interner () in
    let rec fields () =
      match peek lx with
      | Trbrace -> advance lx
      | Tident _ ->
        (match ident lx with
         | "r_unit" -> r_unit := number lx; eat lx Tsemi "';'"
         | "c_unit" -> c_unit := number lx; eat lx Tsemi "';'"
         | "default_slew" -> default_slew := number lx; eat lx Tsemi "';'"
         | "cell" -> cells := parse_cell lx axis :: !cells
         | s -> error lx (Printf.sprintf "unknown library field %S" s));
        fields ()
      | Tstring _ | Tnumber _ | Tlbrace | Tsemi | Tarrow | Teof ->
        error lx "expected library field or '}'"
    in
    fields ();
    (match peek lx with
     | Teof -> ()
     | Tident _ | Tstring _ | Tnumber _ | Tlbrace | Trbrace | Tsemi | Tarrow ->
       error lx "trailing input after library");
    { lib_name = name;
      r_unit = !r_unit;
      c_unit = !c_unit;
      default_slew = !default_slew;
      lib_cells = Array.of_list (List.rev !cells) }

  let save path lib =
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc (to_string lib))

  let load path =
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> of_string ~file:path (In_channel.input_all ic))
end
