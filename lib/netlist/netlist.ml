type direction = Input | Output

type pin = {
  pin_id : int;
  pin_name : string;
  cell : int;
  offset_x : float;
  offset_y : float;
  direction : direction;
  net : int;
  lib_pin : int;
}

type cell = {
  cell_id : int;
  cell_name : string;
  lib_cell : int;
  mutable width : float;
  mutable height : float;
  mutable x : float;
  mutable y : float;
  fixed : bool;
  cell_pins : int array;
}

type net = {
  net_id : int;
  net_name : string;
  net_pins : int array;
  mutable weight : float;
}

type t = {
  design_name : string;
  region : Geometry.Rect.t;
  row_height : float;
  cells : cell array;
  pins : pin array;
  nets : net array;
}

let num_cells d = Array.length d.cells
let num_pins d = Array.length d.pins
let num_nets d = Array.length d.nets

let pin_x d p =
  let pin = d.pins.(p) in
  d.cells.(pin.cell).x +. pin.offset_x

let pin_y d p =
  let pin = d.pins.(p) in
  d.cells.(pin.cell).y +. pin.offset_y

let net_driver d n =
  let pins = d.nets.(n).net_pins in
  let rec find i =
    if i >= Array.length pins then None
    else if d.pins.(pins.(i)).direction = Output then Some pins.(i)
    else find (i + 1)
  in
  find 0

let net_sinks d n =
  Array.to_list d.nets.(n).net_pins
  |> List.filter (fun p -> d.pins.(p).direction = Input)

(* Alloc-free bbox fold: this runs once per net per placement iteration
   (the trace HPWL), so boxing a rect per pin would dominate the minor
   heap on large designs.  Same fold order as [Geometry.Bbox.add_xy]. *)
let net_hpwl d n =
  let pins = d.nets.(n).net_pins in
  let k = Array.length pins in
  if k < 2 then 0.0
  else begin
    let p0 = d.pins.(pins.(0)) in
    let c0 = d.cells.(p0.cell) in
    let lx = ref (c0.x +. p0.offset_x) and ly = ref (c0.y +. p0.offset_y) in
    let hx = ref !lx and hy = ref !ly in
    for j = 1 to k - 1 do
      let p = d.pins.(pins.(j)) in
      let c = d.cells.(p.cell) in
      let x = c.x +. p.offset_x and y = c.y +. p.offset_y in
      lx := Float.min !lx x;
      ly := Float.min !ly y;
      hx := Float.max !hx x;
      hy := Float.max !hy y
    done;
    !hx -. !lx +. (!hy -. !ly)
  end

let total_hpwl ?(weighted = false) d =
  let acc = ref 0.0 in
  Array.iter
    (fun net ->
      let w = if weighted then net.weight else 1.0 in
      acc := !acc +. (w *. net_hpwl d net.net_id))
    d.nets;
  !acc

let movable_cells d =
  Array.to_list d.cells
  |> List.filter_map (fun c -> if c.fixed then None else Some c.cell_id)

let find_by_name arr name_of name =
  let n = Array.length arr in
  let rec loop i =
    if i >= n then None
    else if String.equal (name_of arr.(i)) name then Some arr.(i)
    else loop (i + 1)
  in
  loop 0

let cell_by_name d name = find_by_name d.cells (fun c -> c.cell_name) name
let pin_by_name d name = find_by_name d.pins (fun p -> p.pin_name) name

let reset_weights d = Array.iter (fun net -> net.weight <- 1.0) d.nets

let copy_positions d =
  (Array.map (fun c -> c.x) d.cells, Array.map (fun c -> c.y) d.cells)

let restore_positions d (xs, ys) =
  if Array.length xs <> num_cells d || Array.length ys <> num_cells d then
    invalid_arg "Netlist.restore_positions: size mismatch";
  Array.iteri
    (fun i c ->
      c.x <- xs.(i);
      c.y <- ys.(i))
    d.cells

module Builder = struct
  type builder = {
    name : string;
    region : Geometry.Rect.t;
    row_height : float;
    mutable bcells : cell list;  (* reverse order *)
    mutable bpins : pin array;  (* the first [npins] are live *)
    mutable pin_net : int array;  (* net of each live pin, -1 if none *)
    mutable bnets : (string * int array) list;  (* reverse order *)
    mutable ncells : int;
    mutable npins : int;
    mutable nnets : int;
    cell_names : (string, unit) Hashtbl.t;
    pin_names : (string, unit) Hashtbl.t;
    net_names : (string, unit) Hashtbl.t;
  }

  let create ?region ?(row_height = 1.0) name =
    let region =
      match region with
      | Some r -> r
      | None -> Geometry.Rect.make ~lx:0.0 ~ly:0.0 ~hx:100.0 ~hy:100.0
    in
    { name; region; row_height;
      bcells = []; bpins = [||]; pin_net = [||]; bnets = [];
      ncells = 0; npins = 0; nnets = 0;
      cell_names = Hashtbl.create 64;
      pin_names = Hashtbl.create 256;
      net_names = Hashtbl.create 64 }

  let check_fresh table kind name =
    if Hashtbl.mem table name then
      invalid_arg (Printf.sprintf "Netlist.Builder: duplicate %s name %S" kind name);
    Hashtbl.add table name ()

  let add_cell b ~name ~lib_cell ~width ~height ?(x = 0.0) ?(y = 0.0)
      ?(fixed = false) () =
    check_fresh b.cell_names "cell" name;
    let id = b.ncells in
    b.ncells <- id + 1;
    b.bcells <-
      { cell_id = id; cell_name = name; lib_cell; width; height; x; y;
        fixed; cell_pins = [||] }
      :: b.bcells;
    id

  let add_pin b ~cell ~name ~direction ?(offset_x = 0.0) ?(offset_y = 0.0)
      ?(lib_pin = -1) () =
    if cell < 0 || cell >= b.ncells then
      invalid_arg (Printf.sprintf "Netlist.Builder: pin %S on unknown cell %d" name cell);
    check_fresh b.pin_names "pin" name;
    let id = b.npins in
    let pin =
      { pin_id = id; pin_name = name; cell; offset_x; offset_y; direction;
        net = -1; lib_pin }
    in
    if id = Array.length b.bpins then begin
      let grow a fill =
        Array.init (max 16 (2 * id)) (fun i -> if i < id then a.(i) else fill)
      in
      b.bpins <- grow b.bpins pin;
      b.pin_net <- grow b.pin_net (-1)
    end;
    b.bpins.(id) <- pin;
    b.npins <- id + 1;
    id

  let add_net b ~name ~pins =
    check_fresh b.net_names "net" name;
    List.iter
      (fun p ->
        if p < 0 || p >= b.npins then
          invalid_arg (Printf.sprintf "Netlist.Builder: net %S uses unknown pin %d" name p))
      pins;
    if pins = [] then
      invalid_arg (Printf.sprintf "Netlist.Builder: net %S has no pins" name);
    let drivers, sinks =
      List.partition (fun p -> b.bpins.(p).direction = Output) pins
    in
    (match drivers with
     | [] | [ _ ] -> ()
     | _ ->
       invalid_arg
         (Printf.sprintf "Netlist.Builder: net %S has multiple drivers" name));
    let id = b.nnets in
    let ordered = Array.of_list (drivers @ sinks) in
    Array.iter
      (fun p ->
        if b.pin_net.(p) <> -1 then
          invalid_arg
            (Printf.sprintf "Netlist.Builder: pin %S on two nets"
               b.bpins.(p).pin_name);
        b.pin_net.(p) <- id)
      ordered;
    b.nnets <- id + 1;
    b.bnets <- (name, ordered) :: b.bnets;
    id

  let freeze b =
    let pins =
      Array.init b.npins (fun p -> { (b.bpins.(p)) with net = b.pin_net.(p) })
    in
    let nets =
      Array.mapi
        (fun id (name, ordered) ->
          { net_id = id; net_name = name; net_pins = ordered; weight = 1.0 })
        (Array.of_list (List.rev b.bnets))
    in
    (* Attach pins to their owning cells in pin-id order. *)
    let per_cell = Array.make b.ncells [] in
    for p = Array.length pins - 1 downto 0 do
      per_cell.(pins.(p).cell) <- p :: per_cell.(pins.(p).cell)
    done;
    let cells =
      Array.of_list
        (List.rev_map
           (fun c -> { c with cell_pins = Array.of_list per_cell.(c.cell_id) })
           b.bcells)
    in
    { design_name = b.name;
      region = b.region;
      row_height = b.row_height;
      cells;
      pins;
      nets }
end

module Stats = struct
  type stats = {
    cells : int;
    movable : int;
    nets : int;
    pins : int;
    average_fanout : float;
    max_fanout : int;
    total_cell_area : float;
    region_area : float;
    utilization : float;
  }

  let compute d =
    let movable = List.length (movable_cells d) in
    let fanouts =
      Array.map (fun net -> max 0 (Array.length net.net_pins - 1)) d.nets
    in
    let total_fanout = Array.fold_left ( + ) 0 fanouts in
    let max_fanout = Array.fold_left max 0 fanouts in
    let cell_area =
      Array.fold_left
        (fun acc c -> if c.fixed then acc else acc +. (c.width *. c.height))
        0.0 d.cells
    in
    let region_area = Geometry.Rect.area d.region in
    { cells = num_cells d;
      movable;
      nets = num_nets d;
      pins = num_pins d;
      average_fanout =
        (if num_nets d = 0 then 0.0
         else float_of_int total_fanout /. float_of_int (num_nets d));
      max_fanout;
      total_cell_area = cell_area;
      region_area;
      utilization = (if region_area > 0.0 then cell_area /. region_area else 0.0) }

  let pp ppf s =
    Format.fprintf ppf
      "@[<v>cells: %d (movable %d)@,nets: %d@,pins: %d@,avg fanout: %.2f@,\
       max fanout: %d@,utilization: %.1f%%@]"
      s.cells s.movable s.nets s.pins s.average_fanout s.max_fanout
      (100.0 *. s.utilization)
end
