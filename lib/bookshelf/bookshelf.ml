let float_str f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let to_string (design : Netlist.t) (cs : Sta.Constraints.t) =
  let b = Buffer.create (1 lsl 20) in
  let region = design.Netlist.region in
  Buffer.add_string b (Printf.sprintf "design \"%s\" {\n" design.Netlist.design_name);
  Buffer.add_string b
    (Printf.sprintf "  region %s %s %s %s;\n"
       (float_str region.Geometry.Rect.lx) (float_str region.Geometry.Rect.ly)
       (float_str region.Geometry.Rect.hx) (float_str region.Geometry.Rect.hy));
  Buffer.add_string b
    (Printf.sprintf "  row_height %s;\n" (float_str design.Netlist.row_height));
  Buffer.add_string b
    (Printf.sprintf
       "  constraints { clock_period %s; input_delay %s; output_delay %s; \
        input_slew %s; clock_slew %s; output_load %s; }\n"
       (float_str cs.Sta.Constraints.clock_period)
       (float_str cs.Sta.Constraints.input_delay)
       (float_str cs.Sta.Constraints.output_delay)
       (float_str cs.Sta.Constraints.input_slew)
       (float_str cs.Sta.Constraints.clock_slew)
       (float_str cs.Sta.Constraints.output_load));
  Array.iter
    (fun (c : Netlist.cell) ->
      Buffer.add_string b (Printf.sprintf "  cell \"%s\" { " c.Netlist.cell_name);
      if c.Netlist.lib_cell >= 0 then
        Buffer.add_string b (Printf.sprintf "lib %d; " c.Netlist.lib_cell)
      else Buffer.add_string b "pad; ";
      Buffer.add_string b
        (Printf.sprintf "size %s %s; at %s %s; fixed %b; }\n"
           (float_str c.Netlist.width) (float_str c.Netlist.height)
           (float_str c.Netlist.x) (float_str c.Netlist.y) c.Netlist.fixed))
    design.Netlist.cells;
  Array.iter
    (fun (p : Netlist.pin) ->
      Buffer.add_string b
        (Printf.sprintf
           "  pin \"%s\" { cell \"%s\"; direction %s; offset %s %s; lib_pin %d; }\n"
           p.Netlist.pin_name
           design.Netlist.cells.(p.Netlist.cell).Netlist.cell_name
           (match p.Netlist.direction with
            | Netlist.Input -> "input"
            | Netlist.Output -> "output")
           (float_str p.Netlist.offset_x) (float_str p.Netlist.offset_y)
           p.Netlist.lib_pin))
    design.Netlist.pins;
  Array.iter
    (fun (net : Netlist.net) ->
      Buffer.add_string b (Printf.sprintf "  net \"%s\" { pins" net.Netlist.net_name);
      Array.iter
        (fun p ->
          Buffer.add_string b
            (Printf.sprintf " \"%s\"" design.Netlist.pins.(p).Netlist.pin_name))
        net.Netlist.net_pins;
      Buffer.add_string b "; }\n")
    design.Netlist.nets;
  Buffer.add_string b "}\n";
  Buffer.contents b

(* The on-disk format stores library-cell indices for compactness; they
   are validated against the resolving library at load time. *)
let of_string ?file lib src =
  let open Parsekit in
  let lx = make_lexer ?file ~what:"bookshelf" src in
  (match ident lx with
   | "design" -> ()
   | s -> error lx (Printf.sprintf "expected 'design', got %S" s));
  let name = string_ lx in
  let region = ref (Geometry.Rect.make ~lx:0.0 ~ly:0.0 ~hx:1.0 ~hy:1.0) in
  let row_height = ref 1.0 in
  let cs = ref Sta.Constraints.default in
  let cells = ref [] and pins = ref [] and nets = ref [] in
  let parse_constraints () =
    block lx ~field:(fun lx f ->
      let v = number lx in
      eat lx Tsemi "';'";
      let c = !cs in
      cs :=
        (match f with
         | "clock_period" -> { c with Sta.Constraints.clock_period = v }
         | "input_delay" -> { c with Sta.Constraints.input_delay = v }
         | "output_delay" -> { c with Sta.Constraints.output_delay = v }
         | "input_slew" -> { c with Sta.Constraints.input_slew = v }
         | "clock_slew" -> { c with Sta.Constraints.clock_slew = v }
         | "output_load" -> { c with Sta.Constraints.output_load = v }
         | other -> error lx (Printf.sprintf "unknown constraint %S" other)))
  in
  let parse_cell () =
    let decl_line = line lx in
    let cname = string_ lx in
    let lib_cell = ref (-1) and w = ref 1.0 and h = ref 1.0 in
    let x = ref 0.0 and y = ref 0.0 and fixed = ref false in
    block lx ~field:(fun lx f ->
      (match f with
       | "lib" ->
         let idx = int_of_float (number lx) in
         if idx < 0 || idx >= Array.length lib.Liberty.lib_cells then
           error lx (Printf.sprintf "cell %S: bad lib index %d" cname idx);
         lib_cell := idx
       | "pad" -> lib_cell := -1
       | "size" -> w := number lx; h := number lx
       | "at" -> x := number lx; y := number lx
       | "fixed" -> fixed := bool_ lx
       | other -> error lx (Printf.sprintf "unknown cell field %S" other));
      eat lx Tsemi "';'");
    cells := (cname, !lib_cell, !w, !h, !x, !y, !fixed, decl_line) :: !cells
  in
  let parse_pin () =
    let decl_line = line lx in
    let pname = string_ lx in
    let cell = ref "" and dir = ref Netlist.Input in
    let ox = ref 0.0 and oy = ref 0.0 and lib_pin = ref (-1) in
    block lx ~field:(fun lx f ->
      (match f with
       | "cell" -> cell := string_ lx
       | "direction" ->
         (match ident lx with
          | "input" -> dir := Netlist.Input
          | "output" -> dir := Netlist.Output
          | s -> error lx (Printf.sprintf "bad direction %S" s))
       | "offset" -> ox := number lx; oy := number lx
       | "lib_pin" -> lib_pin := int_of_float (number lx)
       | other -> error lx (Printf.sprintf "unknown pin field %S" other));
      eat lx Tsemi "';'");
    pins := (pname, !cell, !dir, !ox, !oy, !lib_pin, decl_line) :: !pins
  in
  let parse_net () =
    let decl_line = line lx in
    let nname = string_ lx in
    let net_pins = ref [] in
    block lx ~field:(fun lx f ->
      match f with
      | "pins" ->
        let rec names acc =
          match peek lx with
          | Tstring s -> advance lx; names (s :: acc)
          | Tsemi -> advance lx; List.rev acc
          | Tident _ | Tnumber _ | Tlbrace | Trbrace | Tarrow | Teof ->
            error lx "expected pin name or ';'"
        in
        net_pins := names []
      | other -> error lx (Printf.sprintf "unknown net field %S" other));
    nets := (nname, !net_pins, decl_line) :: !nets
  in
  block lx ~field:(fun lx f ->
    match f with
    | "region" ->
      let lo_x = number lx in
      let lo_y = number lx in
      let hi_x = number lx in
      let hi_y = number lx in
      eat lx Tsemi "';'";
      region := Geometry.Rect.make ~lx:lo_x ~ly:lo_y ~hx:hi_x ~hy:hi_y
    | "row_height" -> row_height := number lx; eat lx Tsemi "';'"
    | "constraints" -> parse_constraints ()
    | "cell" -> parse_cell ()
    | "pin" -> parse_pin ()
    | "net" -> parse_net ()
    | other -> error lx (Printf.sprintf "unknown design field %S" other));
  (match peek lx with
   | Teof -> ()
   | Tident _ | Tstring _ | Tnumber _ | Tlbrace | Trbrace | Tsemi | Tarrow ->
     error lx "trailing input after design");
  (* rebuild through the validating builder; a builder error is
     reported at the declaration that caused it *)
  let b = Netlist.Builder.create ~region:!region ~row_height:!row_height name in
  let at line f = try f () with Invalid_argument msg -> fail_at ?file ~line msg in
  let cell_ids = Hashtbl.create 1024 in
  List.iter
    (fun (cname, lib_cell, w, h, x, y, fixed, decl_line) ->
      let id =
        at decl_line (fun () ->
          Netlist.Builder.add_cell b ~name:cname ~lib_cell ~width:w ~height:h
            ~x ~y ~fixed ())
      in
      Hashtbl.replace cell_ids cname id)
    (List.rev !cells);
  let pin_ids = Hashtbl.create 4096 in
  List.iter
    (fun (pname, cname, dir, ox, oy, lib_pin, decl_line) ->
      let cell =
        match Hashtbl.find_opt cell_ids cname with
        | Some id -> id
        | None ->
          fail_at ?file ~line:decl_line
            (Printf.sprintf "bookshelf: pin %S on unknown cell %S" pname
               cname)
      in
      let id =
        at decl_line (fun () ->
          Netlist.Builder.add_pin b ~cell ~name:pname ~direction:dir
            ~offset_x:ox ~offset_y:oy ~lib_pin ())
      in
      Hashtbl.replace pin_ids pname id)
    (List.rev !pins);
  List.iter
    (fun (nname, pin_names, decl_line) ->
      let resolved =
        List.map
          (fun pname ->
            match Hashtbl.find_opt pin_ids pname with
            | Some id -> id
            | None ->
              fail_at ?file ~line:decl_line
                (Printf.sprintf "bookshelf: net %S uses unknown pin %S"
                   nname pname))
          pin_names
      in
      at decl_line (fun () ->
        ignore (Netlist.Builder.add_net b ~name:nname ~pins:resolved)))
    (List.rev !nets);
  (Netlist.Builder.freeze b, !cs)

let save path design cs =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string design cs))

let load lib path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> of_string ~file:path lib (In_channel.input_all ic))
