(* ---- shared naming helpers ---- *)

let is_simple_ident s =
  s <> ""
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '$' -> true | _ -> false)
       s

(* Verilog escaped-identifier syntax covers arbitrary names. *)
let emit_ident s = if is_simple_ident s then s else "\\" ^ s ^ " "

(* ---- export ---- *)

let export (design : Netlist.t) (lib : Liberty.t) =
  let b = Buffer.create (1 lsl 16) in
  let is_pad (c : Netlist.cell) = c.Netlist.lib_cell < 0 in
  (* net -> wire/port name: a net touching pads is named after its first
     pad; any further pads on the same net become [assign] aliases *)
  let pads_of n =
    Array.to_list design.Netlist.nets.(n).Netlist.net_pins
    |> List.filter_map (fun p ->
      let cell = design.Netlist.cells.(design.Netlist.pins.(p).Netlist.cell) in
      if is_pad cell then Some cell.Netlist.cell_name else None)
  in
  (* the lexicographically smallest pad name is the canonical one, so
     export output is independent of pin ordering *)
  let primary_pad n =
    match List.sort String.compare (pads_of n) with
    | name :: _ -> Some name
    | [] -> None
  in
  let net_name n =
    match primary_pad n with
    | Some name -> name
    | None -> design.Netlist.nets.(n).Netlist.net_name
  in
  let inputs = ref [] and outputs = ref [] in
  Array.iter
    (fun (c : Netlist.cell) ->
      if is_pad c then
        Array.iter
          (fun p ->
            match design.Netlist.pins.(p).Netlist.direction with
            | Netlist.Output -> inputs := c.Netlist.cell_name :: !inputs
            | Netlist.Input -> outputs := c.Netlist.cell_name :: !outputs)
          c.Netlist.cell_pins)
    design.Netlist.cells;
  let inputs = List.rev !inputs and outputs = List.rev !outputs in
  let module_name =
    if is_simple_ident design.Netlist.design_name then design.Netlist.design_name
    else "top"
  in
  Buffer.add_string b (Printf.sprintf "module %s (" module_name);
  Buffer.add_string b
    (String.concat ", " (List.map emit_ident (inputs @ outputs)));
  Buffer.add_string b ");\n";
  List.iter
    (fun p -> Buffer.add_string b (Printf.sprintf "  input %s;\n" (emit_ident p)))
    inputs;
  List.iter
    (fun p -> Buffer.add_string b (Printf.sprintf "  output %s;\n" (emit_ident p)))
    outputs;
  (* internal wires, sorted so the output is order-independent *)
  let wires =
    Array.to_list design.Netlist.nets
    |> List.filter_map (fun (net : Netlist.net) ->
      let name = net_name net.Netlist.net_id in
      if List.mem name inputs || List.mem name outputs then None else Some name)
    |> List.sort_uniq String.compare
  in
  List.iter
    (fun name ->
      Buffer.add_string b (Printf.sprintf "  wire %s;\n" (emit_ident name)))
    wires;
  (* secondary pads on a shared net observe it through an alias *)
  let aliases =
    Array.to_list design.Netlist.nets
    |> List.concat_map (fun (net : Netlist.net) ->
      match List.sort String.compare (pads_of net.Netlist.net_id) with
      | [] | [ _ ] -> []
      | primary :: rest -> List.map (fun extra -> (extra, primary)) rest)
    |> List.sort compare
  in
  List.iter
    (fun (extra, primary) ->
      Buffer.add_string b
        (Printf.sprintf "  assign %s = %s;\n" (emit_ident extra)
           (emit_ident primary)))
    aliases;
  (* instances *)
  Array.iter
    (fun (c : Netlist.cell) ->
      if not (is_pad c) then begin
        if c.Netlist.lib_cell >= Array.length lib.Liberty.lib_cells then
          invalid_arg
            (Printf.sprintf "Verilog.export: cell %s has bad library index"
               c.Netlist.cell_name);
        let lc = lib.Liberty.lib_cells.(c.Netlist.lib_cell) in
        let connections =
          Array.to_list c.Netlist.cell_pins
          |> List.filter_map (fun p ->
            let pin = design.Netlist.pins.(p) in
            if pin.Netlist.net < 0 then None
            else
              Some
                (Printf.sprintf ".%s(%s)"
                   lc.Liberty.lc_pins.(pin.Netlist.lib_pin).Liberty.lp_name
                   (emit_ident (net_name pin.Netlist.net))))
        in
        Buffer.add_string b
          (Printf.sprintf "  %s %s (%s);\n" lc.Liberty.lc_name
             (emit_ident c.Netlist.cell_name)
             (String.concat ", " connections))
      end)
    design.Netlist.cells;
  Buffer.add_string b "endmodule\n";
  Buffer.contents b

(* ---- lexer (Verilog's token language differs from parsekit's) ---- *)

type token =
  | Tid of string
  | Tlparen
  | Trparen
  | Tcomma
  | Tsemi
  | Tdot
  | Teof

type lexer = {
  src : string;
  file : string option;
  mutable pos : int;
  mutable line : int;
  mutable tok : token;
}

let where lx = match lx.file with Some f -> f | None -> "verilog"

let error lx msg =
  failwith
    (Printf.sprintf "%s:%d: parse error: %s" (where lx) lx.line msg)

let rec skip_space lx =
  if lx.pos < String.length lx.src then begin
    let c = lx.src.[lx.pos] in
    if c = '\n' then begin
      lx.line <- lx.line + 1;
      lx.pos <- lx.pos + 1;
      skip_space lx
    end
    else if c = ' ' || c = '\t' || c = '\r' then begin
      lx.pos <- lx.pos + 1;
      skip_space lx
    end
    else if c = '/' && lx.pos + 1 < String.length lx.src then begin
      match lx.src.[lx.pos + 1] with
      | '/' ->
        while lx.pos < String.length lx.src && lx.src.[lx.pos] <> '\n' do
          lx.pos <- lx.pos + 1
        done;
        skip_space lx
      | '*' ->
        lx.pos <- lx.pos + 2;
        let rec close () =
          if lx.pos + 1 >= String.length lx.src then
            error lx "unterminated block comment"
          else if lx.src.[lx.pos] = '*' && lx.src.[lx.pos + 1] = '/' then
            lx.pos <- lx.pos + 2
          else begin
            if lx.src.[lx.pos] = '\n' then lx.line <- lx.line + 1;
            lx.pos <- lx.pos + 1;
            close ()
          end
        in
        close ();
        skip_space lx
      | _ -> ()
    end
  end

let is_ident_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '$' -> true
  | _ -> false

let next_token lx =
  skip_space lx;
  if lx.pos >= String.length lx.src then Teof
  else begin
    let c = lx.src.[lx.pos] in
    match c with
    | '(' -> lx.pos <- lx.pos + 1; Tlparen
    | ')' -> lx.pos <- lx.pos + 1; Trparen
    | ',' -> lx.pos <- lx.pos + 1; Tcomma
    | ';' -> lx.pos <- lx.pos + 1; Tsemi
    | '.' -> lx.pos <- lx.pos + 1; Tdot
    | '=' -> lx.pos <- lx.pos + 1; Tid "="
    | '\\' ->
      (* escaped identifier: up to the next whitespace *)
      lx.pos <- lx.pos + 1;
      let start = lx.pos in
      while
        lx.pos < String.length lx.src
        && not (List.mem lx.src.[lx.pos] [ ' '; '\t'; '\n'; '\r' ])
      do
        lx.pos <- lx.pos + 1
      done;
      Tid (String.sub lx.src start (lx.pos - start))
    | _ ->
      if is_ident_char c then begin
        let start = lx.pos in
        while lx.pos < String.length lx.src && is_ident_char lx.src.[lx.pos] do
          lx.pos <- lx.pos + 1
        done;
        Tid (String.sub lx.src start (lx.pos - start))
      end
      else error lx (Printf.sprintf "unexpected character %C" c)
  end

let make_lexer ?file src =
  let lx = { src; file; pos = 0; line = 1; tok = Teof } in
  lx.tok <- next_token lx;
  lx

let advance lx = lx.tok <- next_token lx
let peek lx = lx.tok

let ident lx =
  match lx.tok with
  | Tid s -> advance lx; s
  | Tlparen | Trparen | Tcomma | Tsemi | Tdot | Teof ->
    error lx "expected identifier"

let eat lx expected what =
  if lx.tok = expected then advance lx else error lx ("expected " ^ what)

(* ---- import ---- *)

type parsed = {
  p_module : string;
  p_inputs : (string * int) list;
  p_outputs : (string * int) list;
      (* port name, declaration line *)
  p_instances : (string * string * (string * string) list * int) list;
      (* cell type, instance name, (pin, net), declaration line *)
  p_aliases : (string * string * int) list;
      (* assign lhs = rhs, declaration line *)
}

let parse ?file src =
  let lx = make_lexer ?file src in
  (match ident lx with
   | "module" -> ()
   | s -> error lx (Printf.sprintf "expected 'module', got %S" s));
  let name = ident lx in
  (* the port list itself is redundant with the declarations *)
  eat lx Tlparen "'('";
  let rec skip_ports () =
    match peek lx with
    | Trparen -> advance lx
    | Tid _ | Tcomma -> advance lx; skip_ports ()
    | Tlparen | Tsemi | Tdot | Teof -> error lx "malformed port list"
  in
  skip_ports ();
  eat lx Tsemi "';'";
  let inputs = ref [] and outputs = ref [] and instances = ref [] in
  let aliases = ref [] in
  let rec names acc =
    let n = ident lx in
    match peek lx with
    | Tcomma -> advance lx; names (n :: acc)
    | Tsemi -> advance lx; List.rev (n :: acc)
    | Tid _ | Tlparen | Trparen | Tdot | Teof ->
      error lx "expected ',' or ';' in declaration"
  in
  let ports () =
    let decl_line = lx.line in
    List.map (fun n -> (n, decl_line)) (names [])
  in
  let parse_instance cell_type =
    let decl_line = lx.line in
    let inst = ident lx in
    eat lx Tlparen "'('";
    let rec connections acc =
      match peek lx with
      | Trparen -> advance lx; List.rev acc
      | Tdot ->
        advance lx;
        let pin = ident lx in
        eat lx Tlparen "'('";
        let net = ident lx in
        eat lx Trparen "')'";
        (match peek lx with
         | Tcomma -> advance lx
         | Trparen -> ()
         | Tid _ | Tlparen | Tsemi | Tdot | Teof ->
           error lx "expected ',' or ')' after connection");
        connections ((pin, net) :: acc)
      | Tid _ | Tlparen | Tcomma | Tsemi | Teof ->
        error lx "expected named connection '.pin(net)'"
    in
    let conns = connections [] in
    eat lx Tsemi "';'";
    instances := (cell_type, inst, conns, decl_line) :: !instances
  in
  let rec body () =
    match ident lx with
    | "endmodule" -> ()
    | "input" -> inputs := !inputs @ ports (); body ()
    | "output" -> outputs := !outputs @ ports (); body ()
    | "assign" ->
      let decl_line = lx.line in
      let lhs = ident lx in
      (match peek lx with
       | Tid "=" -> advance lx
       | Tid _ | Tlparen | Trparen | Tcomma | Tsemi | Tdot | Teof ->
         error lx "expected '=' in assign");
      let rhs = ident lx in
      eat lx Tsemi "';'";
      aliases := (lhs, rhs, decl_line) :: !aliases;
      body ()
    | "wire" ->
      (* wires are implied by use; the declaration is consumed and
         checked for syntax only *)
      ignore (names []);
      body ()
    | cell_type -> parse_instance cell_type; body ()
  in
  body ();
  { p_module = name; p_inputs = !inputs; p_outputs = !outputs;
    p_instances = List.rev !instances; p_aliases = List.rev !aliases }

(* deterministic pseudo-random jitter for invented geometry *)
let hash01 i salt =
  let h = ref ((i * 2654435761) + (salt * 40503)) in
  h := !h lxor (!h lsr 13);
  h := !h * 1274126177;
  h := !h lxor (!h lsr 16);
  float_of_int (!h land 0xFFFFF) /. 1048576.0

let import ?file ?(utilization = 0.55) ?(row_height = 1.4) (lib : Liberty.t)
    src =
  let p = parse ?file src in
  (* resolve instance types and size the region *)
  let resolved =
    List.map
      (fun (cell_type, inst, conns, decl_line) ->
        match Liberty.cell_index lib cell_type with
        | Some k -> (k, inst, conns, decl_line)
        | None ->
          Parsekit.fail_at ?file ~line:decl_line
            (Printf.sprintf "verilog: unknown cell type %S" cell_type))
      p.p_instances
  in
  let total_area =
    List.fold_left
      (fun acc (k, _, _, _) ->
        let lc = lib.Liberty.lib_cells.(k) in
        acc +. (lc.Liberty.lc_width *. lc.Liberty.lc_height))
      0.0 resolved
  in
  let side = Float.max 20.0 (Float.sqrt (total_area /. utilization)) in
  let region = Geometry.Rect.make ~lx:0.0 ~ly:0.0 ~hx:side ~hy:side in
  let b = Netlist.Builder.create ~region ~row_height p.p_module in
  (* a builder error is reported at the declaration that caused it *)
  let at line f =
    try f () with Invalid_argument msg -> Parsekit.fail_at ?file ~line msg
  in
  (* pads on the periphery, in declaration order *)
  let nports = List.length p.p_inputs + List.length p.p_outputs in
  (* resolve assign-aliases to a canonical net name *)
  let alias = Hashtbl.create 16 in
  List.iter
    (fun (lhs, rhs, decl_line) -> Hashtbl.replace alias lhs (rhs, decl_line))
    p.p_aliases;
  let rec canon ?(depth = 0) ?line n =
    if depth > 1000 then
      Parsekit.fail_at ?file
        ~line:(Option.value line ~default:0)
        "verilog: circular assign chain"
    else
      match Hashtbl.find_opt alias n with
      | Some (next, l) -> canon ~depth:(depth + 1) ~line:l next
      | None -> n
  in
  let port_pins = Hashtbl.create 64 in
  let add_port idx direction (name, decl_line) =
    let t = (float_of_int idx +. 0.5) /. float_of_int (max 1 nports) in
    let s = t *. 4.0 in
    let x, y =
      if s < 1.0 then (s *. side, 0.0)
      else if s < 2.0 then (side, (s -. 1.0) *. side)
      else if s < 3.0 then ((3.0 -. s) *. side, side)
      else (0.0, (4.0 -. s) *. side)
    in
    at decl_line (fun () ->
      let cell =
        Netlist.Builder.add_cell b ~name ~lib_cell:(-1) ~width:2.0 ~height:2.0
          ~x ~y ~fixed:true ()
      in
      let pin =
        Netlist.Builder.add_pin b ~cell ~name:(name ^ "/P") ~direction ()
      in
      (* the port name doubles as its net name *)
      Hashtbl.replace port_pins name (pin, direction = Netlist.Output, decl_line))
  in
  List.iteri (fun i n -> add_port i Netlist.Output n) p.p_inputs;
  List.iteri
    (fun i n -> add_port (List.length p.p_inputs + i) Netlist.Input n)
    p.p_outputs;
  (* instances with invented deterministic geometry *)
  let net_members = Hashtbl.create 1024 in
  let connect net member =
    let existing =
      Option.value ~default:[] (Hashtbl.find_opt net_members net)
    in
    Hashtbl.replace net_members net (member :: existing)
  in
  Hashtbl.iter
    (fun net (pin, drives, line) -> connect (canon net) (pin, false, drives, line))
    port_pins;
  List.iteri
    (fun idx (kind, inst, conns, decl_line) ->
      let lc = lib.Liberty.lib_cells.(kind) in
      let margin = 3.0 in
      let cell =
        at decl_line (fun () ->
          Netlist.Builder.add_cell b ~name:inst ~lib_cell:kind
            ~width:lc.Liberty.lc_width ~height:lc.Liberty.lc_height
            ~x:(margin +. (hash01 idx 1 *. (side -. (2.0 *. margin))))
            ~y:(margin +. (hash01 idx 2 *. (side -. (2.0 *. margin))))
            ())
      in
      (* every library pin exists on the instance; the named connections
         decide which of them join nets *)
      List.iter
        (fun (pin_name, _) ->
          if Liberty.pin_index lc pin_name = None then
            Parsekit.fail_at ?file ~line:decl_line
              (Printf.sprintf "verilog: cell %s (%s) has no pin %S" inst
                 lc.Liberty.lc_name pin_name))
        conns;
      Array.iteri
        (fun j (lp : Liberty.lib_pin) ->
          let k = Array.length lc.Liberty.lc_pins in
          let ox =
            (lc.Liberty.lc_width *. (float_of_int (j + 1) /. float_of_int (k + 1)))
            -. (lc.Liberty.lc_width /. 2.0)
          in
          let oy =
            if j land 1 = 0 then -.lc.Liberty.lc_height /. 8.0
            else lc.Liberty.lc_height /. 8.0
          in
          let drives = lp.Liberty.lp_direction = Liberty.Lib_output in
          let pin =
            at decl_line (fun () ->
              Netlist.Builder.add_pin b ~cell
                ~name:(Printf.sprintf "%s/%s" inst lp.Liberty.lp_name)
                ~direction:(if drives then Netlist.Output else Netlist.Input)
                ~offset_x:ox ~offset_y:oy ~lib_pin:j ())
          in
          match List.assoc_opt lp.Liberty.lp_name conns with
          | Some net ->
            connect (canon net) (pin, lp.Liberty.lp_is_clock, drives, decl_line)
          | None -> ())
        lc.Liberty.lc_pins)
    resolved;
  (* materialise nets; undriven all-clock nets model the ideal clock *)
  let net_list =
    Hashtbl.fold (fun net members acc -> (net, members) :: acc) net_members []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  List.iter
    (fun (net, members) ->
      let all_clock = List.for_all (fun (_, clk, _, _) -> clk) members in
      (* the one builder error a net can raise here is a second driver:
         report it at that driver's declaration *)
      let line =
        match List.filter (fun (_, _, drives, _) -> drives) (List.rev members) with
        | _ :: (_, _, _, l) :: _ -> l
        | [] | [ _ ] -> 0
      in
      if not all_clock then
        at line (fun () ->
          ignore
            (Netlist.Builder.add_net b ~name:net
               ~pins:(List.rev_map (fun (p, _, _, _) -> p) members))))
    net_list;
  Netlist.Builder.freeze b

let save path design lib =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (export design lib))

let load ?utilization ?row_height lib path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      import ~file:path ?utilization ?row_height lib
        (In_channel.input_all ic))
