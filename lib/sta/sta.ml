type transition = Rise | Fall

let transition_index = function Rise -> 0 | Fall -> 1

let pp_transition ppf = function
  | Rise -> Format.pp_print_string ppf "rise"
  | Fall -> Format.pp_print_string ppf "fall"

module Constraints = struct
  type t = {
    clock_period : float;
    input_delay : float;
    output_delay : float;
    input_slew : float;
    clock_slew : float;
    output_load : float;
  }

  let default =
    { clock_period = 800.0;
      input_delay = 0.0;
      output_delay = 0.0;
      input_slew = 15.0;
      clock_slew = 10.0;
      output_load = 4.0 }
end

module Graph = struct
  type check = {
    ck_data : int;
    ck_clock : int;
    ck_arc : Liberty.check_arc;
  }

  type t = {
    design : Netlist.t;
    lib : Liberty.t;
    constraints : Constraints.t;
    pin_level : int array;
    levels : int array array;
    arc_from : int array;
    arc_to : int array;
    arc_table : Liberty.timing_arc array;
    arc_mask : int array;
    fanin_off : int array;
    fanin_arc : int array;
    fanout_off : int array;
    fanout_arc : int array;
    net_driver_of : int array;
    net_sink_off : int array;
    net_sink : int array;
    check_of_pin : check option array;
    pin_cap : float array;
    is_endpoint : bool array;
    is_start : bool array;
    is_clock_pin : bool array;
    primary_inputs : int list;
    primary_outputs : int list;
    endpoints : int array;
  }

  let max_level g = Array.length g.levels - 1
  let num_arcs g = Array.length g.arc_from

  (* bit (2 * tr_out + tr_in) is set when an input transition [tr_in] can
     produce the output transition [tr_out] through the arc. *)
  let mask_of_sense = function
    | Liberty.Positive_unate -> 0b1001
    | Liberty.Negative_unate -> 0b0110
    | Liberty.Non_unate -> 0b1111

  let arc_admits g a ~tr_out ~tr_in =
    g.arc_mask.(a)
    land (1 lsl ((2 * transition_index tr_out) + transition_index tr_in))
    <> 0

  let build design lib constraints =
    let npins = Netlist.num_pins design in
    let rev_arcs = ref [] in
    let narcs = ref 0 in
    let add_arc u v arc =
      rev_arcs := (u, v, arc) :: !rev_arcs;
      incr narcs
    in
    let check_of_pin = Array.make npins None in
    let pin_cap = Array.make npins 0.0 in
    let is_clock_pin = Array.make npins false in
    (* Resolve each cell's library arcs onto its design pins. *)
    Array.iter
      (fun (c : Netlist.cell) ->
        if c.Netlist.lib_cell >= 0 then begin
          let lc = lib.Liberty.lib_cells.(c.Netlist.lib_cell) in
          let n_lib_pins = Array.length lc.Liberty.lc_pins in
          let design_pin = Array.make n_lib_pins (-1) in
          Array.iter
            (fun p ->
              let lp = design.Netlist.pins.(p).Netlist.lib_pin in
              if lp < 0 || lp >= n_lib_pins then
                invalid_arg
                  (Printf.sprintf "Sta.Graph: cell %s pin %s has bad lib_pin"
                     c.Netlist.cell_name
                     design.Netlist.pins.(p).Netlist.pin_name);
              design_pin.(lp) <- p)
            c.Netlist.cell_pins;
          let resolve lp =
            if design_pin.(lp) < 0 then
              invalid_arg
                (Printf.sprintf "Sta.Graph: cell %s missing pin %s"
                   c.Netlist.cell_name lc.Liberty.lc_pins.(lp).Liberty.lp_name)
            else design_pin.(lp)
          in
          Array.iter
            (fun p ->
              let pin = design.Netlist.pins.(p) in
              if pin.Netlist.lib_pin >= 0 then begin
                let lp = lc.Liberty.lc_pins.(pin.Netlist.lib_pin) in
                pin_cap.(p) <- lp.Liberty.lp_capacitance;
                is_clock_pin.(p) <- lp.Liberty.lp_is_clock
              end)
            c.Netlist.cell_pins;
          Array.iter
            (fun (arc : Liberty.timing_arc) ->
              let u = resolve arc.Liberty.arc_from
              and v = resolve arc.Liberty.arc_to in
              add_arc u v arc)
            lc.Liberty.lc_arcs;
          Array.iter
            (fun (ck : Liberty.check_arc) ->
              let d = resolve ck.Liberty.check_data
              and k = resolve ck.Liberty.check_clock in
              check_of_pin.(d) <-
                Some { ck_data = d; ck_clock = k; ck_arc = ck })
            lc.Liberty.lc_checks
        end
        else
          (* pad: input pins model the external load *)
          Array.iter
            (fun p ->
              if design.Netlist.pins.(p).Netlist.direction = Netlist.Input
              then pin_cap.(p) <- constraints.Constraints.output_load)
            c.Netlist.cell_pins)
      design.Netlist.cells;
    (* Flatten the collected cell arcs to CSR: one id per arc, fan-in and
       fan-out adjacency as offset + arc-id arrays (stable counting sort,
       so arc ids appear in insertion order within each pin's range). *)
    let narcs = !narcs in
    let arcs = Array.of_list (List.rev !rev_arcs) in
    let arc_from = Array.map (fun (u, _, _) -> u) arcs in
    let arc_to = Array.map (fun (_, v, _) -> v) arcs in
    let arc_table = Array.map (fun (_, _, arc) -> arc) arcs in
    let arc_mask =
      Array.map
        (fun (_, _, (arc : Liberty.timing_arc)) ->
          mask_of_sense arc.Liberty.sense)
        arcs
    in
    let csr_by key =
      let off = Array.make (npins + 1) 0 in
      for a = 0 to narcs - 1 do
        off.(key.(a) + 1) <- off.(key.(a) + 1) + 1
      done;
      for p = 1 to npins do
        off.(p) <- off.(p) + off.(p - 1)
      done;
      let ids = Array.make narcs 0 in
      let cursor = Array.copy off in
      for a = 0 to narcs - 1 do
        let p = key.(a) in
        ids.(cursor.(p)) <- a;
        cursor.(p) <- cursor.(p) + 1
      done;
      (off, ids)
    in
    let fanin_off, fanin_arc = csr_by arc_to in
    let fanout_off, fanout_arc = csr_by arc_from in
    (* Net connectivity, flattened once: the driving pin of each net and
       the sink (input-direction) pins in CSR form. *)
    let nnets = Netlist.num_nets design in
    let net_driver_of = Array.make nnets (-1) in
    let net_sink_off = Array.make (nnets + 1) 0 in
    Array.iter
      (fun (net : Netlist.net) ->
        let n = net.Netlist.net_id in
        (match Netlist.net_driver design n with
         | Some u -> net_driver_of.(n) <- u
         | None -> ());
        Array.iter
          (fun p ->
            if design.Netlist.pins.(p).Netlist.direction = Netlist.Input then
              net_sink_off.(n + 1) <- net_sink_off.(n + 1) + 1)
          net.Netlist.net_pins)
      design.Netlist.nets;
    for n = 1 to nnets do
      net_sink_off.(n) <- net_sink_off.(n) + net_sink_off.(n - 1)
    done;
    let net_sink = Array.make net_sink_off.(nnets) 0 in
    let sink_cursor = Array.copy net_sink_off in
    Array.iter
      (fun (net : Netlist.net) ->
        let n = net.Netlist.net_id in
        Array.iter
          (fun p ->
            if design.Netlist.pins.(p).Netlist.direction = Netlist.Input
            then begin
              net_sink.(sink_cursor.(n)) <- p;
              sink_cursor.(n) <- sink_cursor.(n) + 1
            end)
          net.Netlist.net_pins)
      design.Netlist.nets;
    (* Longest-path levelisation over net arcs + cell arcs. *)
    let successors = Array.make npins [] in
    let indegree = Array.make npins 0 in
    let add_edge u v =
      successors.(u) <- v :: successors.(u);
      indegree.(v) <- indegree.(v) + 1
    in
    Array.iter
      (fun (net : Netlist.net) ->
        let u = net_driver_of.(net.Netlist.net_id) in
        if u >= 0 then
          Array.iter
            (fun p -> if p <> u then add_edge u p)
            net.Netlist.net_pins)
      design.Netlist.nets;
    for a = 0 to narcs - 1 do
      add_edge arc_from.(a) arc_to.(a)
    done;
    let pin_level = Array.make npins 0 in
    let queue = Queue.create () in
    for p = 0 to npins - 1 do
      if indegree.(p) = 0 then Queue.push p queue
    done;
    let processed = ref 0 in
    while not (Queue.is_empty queue) do
      let u = Queue.pop queue in
      incr processed;
      List.iter
        (fun v ->
          if pin_level.(u) + 1 > pin_level.(v) then
            pin_level.(v) <- pin_level.(u) + 1;
          indegree.(v) <- indegree.(v) - 1;
          if indegree.(v) = 0 then Queue.push v queue)
        successors.(u)
    done;
    if !processed <> npins then
      invalid_arg "Sta.Graph: combinational cycle detected";
    let nlevels = 1 + Array.fold_left max 0 pin_level in
    let buckets = Array.make nlevels [] in
    for p = npins - 1 downto 0 do
      buckets.(pin_level.(p)) <- p :: buckets.(pin_level.(p))
    done;
    let levels = Array.map Array.of_list buckets in
    let is_start = Array.make npins false in
    let primary_inputs = ref [] and primary_outputs = ref [] in
    let is_endpoint = Array.make npins false in
    for p = npins - 1 downto 0 do
      let pin = design.Netlist.pins.(p) in
      let cell = design.Netlist.cells.(pin.Netlist.cell) in
      if cell.Netlist.lib_cell < 0 then begin
        match pin.Netlist.direction with
        | Netlist.Output ->
          primary_inputs := p :: !primary_inputs;
          is_start.(p) <- true
        | Netlist.Input ->
          primary_outputs := p :: !primary_outputs;
          is_endpoint.(p) <- true
      end
      else begin
        if is_clock_pin.(p) then is_start.(p) <- true;
        if check_of_pin.(p) <> None then is_endpoint.(p) <- true
      end
    done;
    let endpoints =
      Array.of_seq
        (Seq.filter (fun p -> is_endpoint.(p)) (Seq.init npins Fun.id))
    in
    { design; lib; constraints; pin_level; levels;
      arc_from; arc_to; arc_table; arc_mask;
      fanin_off; fanin_arc; fanout_off; fanout_arc;
      net_driver_of; net_sink_off; net_sink;
      check_of_pin; pin_cap; is_endpoint; is_start; is_clock_pin;
      primary_inputs = !primary_inputs;
      primary_outputs = !primary_outputs;
      endpoints }
end

module Nets = struct
  type t = {
    graph : Graph.t;
    mutable trees : (Steiner.t * Rc.t) option array;
    tree_index : int array;
    (* pin positions at each net's last (re-)topologisation, in CSR
       layout: net [n]'s pins live at [anchor_off.(n) ..].  A net whose
       every pin has moved by at most the dirty threshold (L-inf) since
       its anchor keeps its topology on a rebuild tick.  Pin-level
       tracking (not bbox) is what makes threshold 0 exactly equivalent
       to a full rebuild: a bbox can stay put while interior pins
       cross. *)
    anchor_off : int array;
    anchor_xs : float array;
    anchor_ys : float array;
  }

  let build_tree (g : Graph.t) net_id =
    let design = g.Graph.design in
    let pins = design.Netlist.nets.(net_id).Netlist.net_pins in
    let n = Array.length pins in
    if n < 2 then None
    else begin
      let xs = Array.map (fun p -> Netlist.pin_x design p) pins in
      let ys = Array.map (fun p -> Netlist.pin_y design p) pins in
      let tree = Steiner.build ~xs ~ys () in
      let pin_caps = Array.map (fun p -> g.Graph.pin_cap.(p)) pins in
      let rc =
        Rc.create ~r_unit:g.Graph.lib.Liberty.r_unit
          ~c_unit:g.Graph.lib.Liberty.c_unit ~pin_caps tree
      in
      Rc.evaluate rc;
      Some (tree, rc)
    end

  let record_anchor t net_id =
    let design = t.graph.Graph.design in
    let pins = design.Netlist.nets.(net_id).Netlist.net_pins in
    let off = t.anchor_off.(net_id) in
    Array.iteri
      (fun k p ->
        t.anchor_xs.(off + k) <- Netlist.pin_x design p;
        t.anchor_ys.(off + k) <- Netlist.pin_y design p)
      pins

  let create graph =
    let design = graph.Graph.design in
    let nnets = Netlist.num_nets design in
    let tree_index = Array.make (Netlist.num_pins design) (-1) in
    Array.iter
      (fun (net : Netlist.net) ->
        if Array.length net.Netlist.net_pins >= 2 then
          Array.iteri
            (fun i p -> tree_index.(p) <- i)
            net.Netlist.net_pins)
      design.Netlist.nets;
    let anchor_off = Array.make (nnets + 1) 0 in
    for n = 0 to nnets - 1 do
      anchor_off.(n + 1) <-
        anchor_off.(n)
        + Array.length design.Netlist.nets.(n).Netlist.net_pins
    done;
    let trees = Array.init nnets (fun n -> build_tree graph n) in
    let t =
      { graph; trees; tree_index; anchor_off;
        anchor_xs = Array.make anchor_off.(nnets) 0.0;
        anchor_ys = Array.make anchor_off.(nnets) 0.0 }
    in
    for n = 0 to nnets - 1 do record_anchor t n done;
    t

  let refresh_net design (tree, rc) net_pins =
    let xs = Array.map (fun p -> Netlist.pin_x design p) net_pins in
    let ys = Array.map (fun p -> Netlist.pin_y design p) net_pins in
    Steiner.update_coordinates tree ~xs ~ys;
    Rc.evaluate rc

  (* same rooted topology and provenance: node-for-node identical
     arrays, so adopting the new coordinates into the old tree is
     bitwise equal to installing the new tree *)
  let same_topology (a : Steiner.t) (b : Steiner.t) =
    let eq_int (xs : int array) (ys : int array) =
      let n = Array.length xs in
      Array.length ys = n
      &&
      let i = ref 0 in
      while !i < n && xs.(!i) = ys.(!i) do incr i done;
      !i = n
    in
    a.Steiner.pin_count = b.Steiner.pin_count
    && eq_int a.Steiner.parent b.Steiner.parent
    && eq_int a.Steiner.x_source b.Steiner.x_source
    && eq_int a.Steiner.y_source b.Steiner.y_source
    && eq_int a.Steiner.order b.Steiner.order

  let install_tree t net_id tree =
    let g = t.graph in
    let design = g.Graph.design in
    let pins = design.Netlist.nets.(net_id).Netlist.net_pins in
    let pin_caps = Array.map (fun p -> g.Graph.pin_cap.(p)) pins in
    let rc =
      Rc.create ~r_unit:g.Graph.lib.Liberty.r_unit
        ~c_unit:g.Graph.lib.Liberty.c_unit ~pin_caps tree
    in
    Rc.evaluate rc;
    t.trees.(net_id) <- Some (tree, rc)

  let k_rebuild = Obs.kernel "steiner.rebuild"
  let k_dirty = Obs.kernel "steiner.dirty"
  let k_lut = Obs.kernel "steiner.lut"
  let k_full = Obs.kernel "steiner.full"
  let k_refresh = Obs.kernel "steiner.refresh"

  (* Steiner construction and RC evaluation are per-net: every task
     touches only [trees.(n)] and freshly allocated tree/RC state, so
     net-parallel dispatch is race-free and bit-identical.  The LUT
     phase only reads the shipped topology table ([Lut.try_build]),
     which covers every class of every LUT degree. *)
  let rebuild ?dirty_threshold ?pool ?(obs = Obs.disabled) t =
    Obs.start obs k_rebuild;
    let p = match pool with Some p -> p | None -> Parallel.sequential_pool in
    let design = t.graph.Graph.design in
    let nnets = Array.length t.trees in
    (* classify: clean (refresh), LUT degree, or heuristic degree *)
    let wl_clean = Array.make nnets 0 and n_clean = ref 0 in
    let wl_lut = Array.make nnets 0 and n_lut = ref 0 in
    let wl_full = Array.make nnets 0 and n_full = ref 0 in
    for n = 0 to nnets - 1 do
      match t.trees.(n) with
      | None -> ()
      | Some _ ->
        let pins = design.Netlist.nets.(n).Netlist.net_pins in
        let dirty =
          match dirty_threshold with
          | None -> true
          | Some thr ->
            let off = t.anchor_off.(n) in
            let d = ref false in
            let k = ref 0 in
            let m = Array.length pins in
            (* Scale the threshold with degree: under a fixed one,
               every high-fanout net is permanently dirty (some pin
               always moves) yet a single pin's jitter has vanishing
               influence on a big net's topology.  At 0 the scaled
               threshold is still 0, so threshold-0 remains
               bit-identical to an unconditional rebuild. *)
            let thr =
              thr
              *. Float.max 1.0
                   (float_of_int m
                    /. float_of_int Steiner.Lut.max_degree)
            in
            while (not !d) && !k < m do
              let pin = pins.(!k) in
              if
                Float.abs
                  (Netlist.pin_x design pin -. t.anchor_xs.(off + !k))
                > thr
                || Float.abs
                     (Netlist.pin_y design pin -. t.anchor_ys.(off + !k))
                   > thr
              then d := true;
              incr k
            done;
            !d
        in
        if not dirty then begin
          wl_clean.(!n_clean) <- n;
          incr n_clean
        end
        else if Array.length pins <= Steiner.Lut.max_degree then begin
          wl_lut.(!n_lut) <- n;
          incr n_lut
        end
        else begin
          wl_full.(!n_full) <- n;
          incr n_full
        end
    done;
    if Obs.enabled obs then begin
      Obs.add obs "steiner.nets_clean" (float_of_int !n_clean);
      Obs.add obs "steiner.nets_lut" (float_of_int !n_lut);
      Obs.add obs "steiner.nets_full" (float_of_int !n_full)
    end;
    (* clean nets: O(1) provenance refresh on the frozen topology *)
    Obs.start obs k_dirty;
    Parallel.parallel_for p ~obs ~cost:200.0 !n_clean (fun i ->
      let n = wl_clean.(i) in
      match t.trees.(n) with
      | None -> ()
      | Some entry ->
        refresh_net design entry design.Netlist.nets.(n).Netlist.net_pins);
    Obs.stop obs;
    (* LUT-degree nets: parallel read-only lookups *)
    Obs.start obs k_lut;
    Parallel.parallel_for p ~obs ~cost:600.0 !n_lut (fun i ->
      let n = wl_lut.(i) in
      let pins = design.Netlist.nets.(n).Netlist.net_pins in
      let xs = Array.map (fun p -> Netlist.pin_x design p) pins in
      let ys = Array.map (fun p -> Netlist.pin_y design p) pins in
      let tree = Option.get (Steiner.Lut.try_build ~xs ~ys) in
      (match t.trees.(n) with
       | Some (old_tree, rc) when same_topology old_tree tree ->
         (* topology unchanged (the common case under small moves):
            keep the installed tree and RC, adopt the coordinates *)
         let m = Steiner.node_count tree in
         Array.blit tree.Steiner.xs 0 old_tree.Steiner.xs 0 m;
         Array.blit tree.Steiner.ys 0 old_tree.Steiner.ys 0 m;
         Rc.evaluate rc
       | _ -> install_tree t n tree);
      record_anchor t n);
    Obs.stop obs;
    (* above-LUT degrees: Prim + Steinerisation *)
    Obs.start obs k_full;
    Parallel.parallel_for p ~obs ~cost:4000.0 !n_full (fun i ->
      let n = wl_full.(i) in
      t.trees.(n) <- build_tree t.graph n;
      record_anchor t n);
    Obs.stop obs;
    Obs.stop obs

  let refresh ?pool ?(obs = Obs.disabled) t =
    Obs.start obs k_refresh;
    let design = t.graph.Graph.design in
    let p = match pool with Some p -> p | None -> Parallel.sequential_pool in
    (* ~cost raised from 80: per-net refresh walks every tree node plus
       a full RC evaluate, several hundred float ops — undercosting it
       made the executor cut grains below profitability at 4 domains
       (4.9ms vs 2.8ms at 2 domains per 5k-cell refresh, measured when
       the cost was set) *)
    Parallel.parallel_for p ~obs ~cost:200.0 (Array.length t.trees) (fun n ->
      match t.trees.(n) with
      | None -> ()
      | Some entry ->
        refresh_net design entry design.Netlist.nets.(n).Netlist.net_pins);
    Obs.stop obs
end

(* The forward timing kernel shared by the exact and the differentiable
   timer; see the interface for the tape layout and the gamma contract. *)
module Forward = struct
  (* The exact lane's LUT pair cache, off-heap: one block per arc at
     [pair_off.(a)], holding the root load of the arc's last query, its
     late and its early input slew per input transition, then three
     outputs (late slew, early delay, early slew) per admitted
     [(tr_out, tr_in)] pair in mask-bit order.  The late delay is the
     tape's. *)
  type pairs = {
    pair_off : int array;
    pair_val : (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t;
  }

  type t = {
    nets : Nets.t;
    at : float array;    (* 2 * pin + transition *)
    slew : float array;
    (* the early (hold) lane: exact state only, empty when smooth *)
    at_e : float array;
    sl_e : float array;
    tape_d : float array;
    (* written at gamma > 0 only; empty in an exact-only state *)
    tape_dd_ds : float array;
    tape_dd_dl : float array;
    tape_s : float array;
    tape_ds_ds : float array;
    tape_ds_dl : float array;
    pred : int array;    (* exact state only, empty when smooth *)
    mutable pairs : pairs;
  }

  let no_edge = -1
  let net_edge = -2

  let no_pairs =
    { pair_off = [||];
      pair_val = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout 0 }

  let create ?(smooth = false) nets =
    let g = nets.Nets.graph in
    let n = 2 * Netlist.num_pins g.Graph.design in
    let m = 4 * Graph.num_arcs g in
    let smooth_tape () = Array.make (if smooth then m else 0) 0.0 in
    let early () = Array.make (if smooth then 0 else n) infinity in
    { nets;
      at = Array.make n neg_infinity;
      slew = Array.make n 0.0;
      at_e = early ();
      sl_e = early ();
      tape_d = Array.make m 0.0;
      tape_dd_ds = smooth_tape ();
      tape_dd_dl = smooth_tape ();
      tape_s = smooth_tape ();
      tape_ds_ds = smooth_tape ();
      tape_ds_dl = smooth_tape ();
      pred = Array.make (if smooth then 0 else n) no_edge;
      pairs = no_pairs }

  (* the admitted pairs of [mask] below bit [bit]: an output's slot in
     its arc's cache block *)
  let rank mask bit =
    let m = mask land ((1 lsl bit) - 1) in
    (m land 1) + ((m lsr 1) land 1) + ((m lsr 2) land 1) + ((m lsr 3) land 1)

  let cache_pairs t =
    if Array.length t.pairs.pair_off = 0 && Array.length t.at_e > 0 then begin
      let g = t.nets.Nets.graph in
      let narcs = Graph.num_arcs g in
      let off = Array.make (narcs + 1) 0 in
      for a = 0 to narcs - 1 do
        off.(a + 1) <- off.(a) + 5 + (3 * rank g.Graph.arc_mask.(a) 4)
      done;
      let v =
        Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout off.(narcs)
      in
      (* a NaN key never matches, so every block starts empty *)
      Bigarray.Array1.fill v Float.nan;
      t.pairs <- { pair_off = off; pair_val = v }
    end

  (* equal bit patterns, for a finite or infinite [x]; false on NaN *)
  let same_bits (x : float) y = x = y && (x <> 0.0 || 1.0 /. x = 1.0 /. y)

  (* LUT selection keyed by transition index (0 = rise, 1 = fall) *)
  let delay_lut (arc : Liberty.timing_arc) oi =
    if oi = 0 then arc.Liberty.cell_rise else arc.Liberty.cell_fall

  let slew_lut (arc : Liberty.timing_arc) oi =
    if oi = 0 then arc.Liberty.rise_transition else arc.Liberty.fall_transition

  (* cell arcs into [v] see the root load of the net [v] drives *)
  let root_load nets v =
    let net = nets.Nets.graph.Graph.design.Netlist.pins.(v).Netlist.net in
    if net < 0 then 0.0
    else
      match nets.Nets.trees.(net) with
      | None -> 0.0
      | Some (_, rc) -> Rc.root_load rc

  let reset t =
    let g = t.nets.Nets.graph in
    let cs = g.Graph.constraints in
    Array.fill t.at 0 (Array.length t.at) neg_infinity;
    Array.fill t.slew 0 (Array.length t.slew) 0.0;
    Array.fill t.at_e 0 (Array.length t.at_e) infinity;
    Array.fill t.sl_e 0 (Array.length t.sl_e) infinity;
    let early = Array.length t.at_e > 0 in
    let start p at slew =
      for i = 2 * p to (2 * p) + 1 do
        t.at.(i) <- at;
        t.slew.(i) <- slew;
        if early then begin
          t.at_e.(i) <- at;
          t.sl_e.(i) <- slew
        end
      done
    in
    List.iter
      (fun p ->
        start p cs.Constraints.input_delay cs.Constraints.input_slew)
      g.Graph.primary_inputs;
    Array.iteri
      (fun p clock -> if clock then start p 0.0 cs.Constraints.clock_slew)
      g.Graph.is_clock_pin

  (* The smooth state's kernel: the max pass evaluates every admitted
     (arc, transition) LUT pair exactly once into the tape; the hard max
     is done there, the LSE (Eq. 11) adds the shifted-sum pass over the
     taped values. *)
  let pin_smooth t ~gamma v =
    let g = t.nets.Nets.graph in
    let at = t.at and slew = t.slew in
    let pin = g.Graph.design.Netlist.pins.(v) in
    let net = pin.Netlist.net in
    (* net arc: at most one fan-in, no aggregation (Eq. 9, 10) *)
    (if pin.Netlist.direction = Netlist.Input && net >= 0 then
       let u = g.Graph.net_driver_of.(net) in
       if u >= 0 && u <> v then
         match t.nets.Nets.trees.(net) with
         | Some (_, rc) ->
           let node = t.nets.Nets.tree_index.(v) in
           let d = Rc.sink_delay rc node in
           let i2 = Rc.sink_impulse2 rc node in
           for ti = 0 to 1 do
             let iu = (2 * u) + ti and iv = (2 * v) + ti in
             if at.(iu) > neg_infinity then begin
               at.(iv) <- at.(iu) +. d;
               slew.(iv) <- sqrt ((slew.(iu) *. slew.(iu)) +. i2)
             end
           done
         | None -> ());
    let lo = g.Graph.fanin_off.(v) and hi = g.Graph.fanin_off.(v + 1) in
    if hi > lo then begin
      let load = root_load t.nets v in
      let grad = gamma > 0.0 in
      (* one pair query's output: the delay, then the slew, each followed
         by its two partials when [grad] *)
      let q = [| 0.0; 0.0; 0.0; 0.0; 0.0; 0.0 |] in
      let qs = if grad then 3 else 1 in
      for oi = 0 to 1 do
        let iv = (2 * v) + oi in
        let max_a = ref neg_infinity and max_s = ref neg_infinity in
        for k = lo to hi - 1 do
          let a = g.Graph.fanin_arc.(k) in
          let u = g.Graph.arc_from.(a) in
          let arc = g.Graph.arc_table.(a) in
          let dlut = delay_lut arc oi and slut = slew_lut arc oi in
          let sub = (g.Graph.arc_mask.(a) lsr (2 * oi)) land 3 in
          for ii = 0 to 1 do
            if sub land (1 lsl ii) <> 0 then begin
              let iu = (2 * u) + ii in
              if at.(iu) > neg_infinity then begin
                let e = (4 * a) + (2 * oi) + ii in
                Liberty.Lut.eval_pair ~grad dlut slut slew.(iu) load q 0;
                let d = q.(0) and s = q.(qs) in
                t.tape_d.(e) <- d;
                if grad then begin
                  t.tape_dd_ds.(e) <- q.(1);
                  t.tape_dd_dl.(e) <- q.(2);
                  t.tape_s.(e) <- s;
                  t.tape_ds_ds.(e) <- q.(4);
                  t.tape_ds_dl.(e) <- q.(5)
                end;
                if at.(iu) +. d > !max_a then max_a := at.(iu) +. d;
                if s > !max_s then max_s := s
              end
            end
          done
        done;
        if gamma <= 0.0 then begin
          if !max_a > at.(iv) then at.(iv) <- !max_a;
          if !max_s > slew.(iv) then slew.(iv) <- !max_s
        end
        else if !max_a > neg_infinity then begin
          let sum_a = ref 0.0 and sum_s = ref 0.0 in
          for k = lo to hi - 1 do
            let a = g.Graph.fanin_arc.(k) in
            let u = g.Graph.arc_from.(a) in
            let sub = (g.Graph.arc_mask.(a) lsr (2 * oi)) land 3 in
            for ii = 0 to 1 do
              if sub land (1 lsl ii) <> 0 then begin
                let iu = (2 * u) + ii in
                if at.(iu) > neg_infinity then begin
                  let e = (4 * a) + (2 * oi) + ii in
                  sum_a :=
                    !sum_a
                    +. exp ((at.(iu) +. t.tape_d.(e) -. !max_a) /. gamma);
                  sum_s := !sum_s +. exp ((t.tape_s.(e) -. !max_s) /. gamma)
                end
              end
            done
          done;
          at.(iv) <- !max_a +. (gamma *. log !sum_a);
          slew.(iv) <- !max_s +. (gamma *. log !sum_s)
        end
      done
    end

  (* A retrace's rule for a cell-arc node whose arrival [av] is not the
     max of its fan-in (a startpoint's own): the first strict minimum of
     [|at(u) + d - av|] in (arc, input transition) order. *)
  let closest_edge t v oi av =
    let g = t.nets.Nets.graph in
    let best = ref no_edge and best_err = ref infinity in
    for k = g.Graph.fanin_off.(v) to g.Graph.fanin_off.(v + 1) - 1 do
      let a = g.Graph.fanin_arc.(k) in
      let u = g.Graph.arc_from.(a) in
      let sub = (g.Graph.arc_mask.(a) lsr (2 * oi)) land 3 in
      for ii = 0 to 1 do
        let iu = (2 * u) + ii in
        if sub land (1 lsl ii) <> 0 && t.at.(iu) > neg_infinity then begin
          let e = (4 * a) + (2 * oi) + ii in
          let err = Float.abs (t.at.(iu) +. t.tape_d.(e) -. av) in
          if err < !best_err then begin
            best_err := err;
            best := e
          end
        end
      done
    done;
    !best

  (* The exact state's kernel: the late hard max and the early lane's
     hard min in one fan-in walk, visited per (arc, input transition) so
     that both output transitions share one cache key; per output
     transition the candidates keep their (arc, input transition) order.
     The node's back-pointer is the net edge when it has one, else the
     first maximal [at(u) + d], which is the first strict minimum of
     [|at(u) + d - at(v)|] when [at(v)] is that max and finite. *)
  let pin_exact t v =
    let g = t.nets.Nets.graph in
    let at = t.at and slew = t.slew and at_e = t.at_e and sl_e = t.sl_e in
    let pred = t.pred in
    let iv0 = 2 * v in
    pred.(iv0) <- no_edge;
    pred.(iv0 + 1) <- no_edge;
    let pin = g.Graph.design.Netlist.pins.(v) in
    let net = pin.Netlist.net in
    (if pin.Netlist.direction = Netlist.Input && net >= 0 then
       let u = g.Graph.net_driver_of.(net) in
       if u >= 0 && u <> v then
         match t.nets.Nets.trees.(net) with
         | Some (_, rc) ->
           let node = t.nets.Nets.tree_index.(v) in
           let d = Rc.sink_delay rc node in
           let i2 = Rc.sink_impulse2 rc node in
           for ti = 0 to 1 do
             let iu = (2 * u) + ti and iv = iv0 + ti in
             if at.(iu) > neg_infinity then begin
               at.(iv) <- at.(iu) +. d;
               slew.(iv) <- sqrt ((slew.(iu) *. slew.(iu)) +. i2);
               pred.(iv) <- net_edge
             end;
             if at_e.(iu) < infinity then begin
               at_e.(iv) <- at_e.(iu) +. d;
               sl_e.(iv) <- sqrt ((sl_e.(iu) *. sl_e.(iu)) +. i2)
             end
           done
         | None -> ());
    let lo = g.Graph.fanin_off.(v) and hi = g.Graph.fanin_off.(v + 1) in
    if hi > lo then begin
      let load = root_load t.nets v in
      let cache = t.pairs in
      let cached = Array.length cache.pair_off > 0 in
      let cv = cache.pair_val in
      (* per task: one pair query's delay and slew, then the late max
         of arrival and of slew per output transition *)
      let q = [| 0.0; 0.0; neg_infinity; neg_infinity; neg_infinity;
                 neg_infinity |] in
      let best0 = ref no_edge and best1 = ref no_edge in
      for k = lo to hi - 1 do
        let a = g.Graph.fanin_arc.(k) in
        let u = g.Graph.arc_from.(a) in
        let arc = g.Graph.arc_table.(a) in
        let mask = g.Graph.arc_mask.(a) in
        let base = if cached then cache.pair_off.(a) else 0 in
        if cached && not (same_bits cv.{base} load) then begin
          cv.{base} <- load;
          for j = 1 to 4 do cv.{base + j} <- Float.nan done
        end;
        for ii = 0 to 1 do
          let iu = (2 * u) + ii in
          if at.(iu) > neg_infinity then begin
            let s_in = slew.(iu) in
            let hit = cached && same_bits cv.{base + 1 + ii} s_in in
            for oi = 0 to 1 do
              let bit = (2 * oi) + ii in
              if mask land (1 lsl bit) <> 0 then begin
                let e = (4 * a) + bit in
                let o = base + 5 + (3 * rank mask bit) in
                if hit then begin
                  q.(0) <- t.tape_d.(e);
                  q.(1) <- cv.{o}
                end
                else begin
                  Liberty.Lut.eval_pair ~grad:false (delay_lut arc oi)
                    (slew_lut arc oi) s_in load q 0;
                  t.tape_d.(e) <- q.(0);
                  if cached then cv.{o} <- q.(1)
                end;
                let c = at.(iu) +. q.(0) in
                if c > q.(2 + oi) then begin
                  q.(2 + oi) <- c;
                  if oi = 0 then best0 := e else best1 := e
                end;
                if q.(1) > q.(4 + oi) then q.(4 + oi) <- q.(1)
              end
            done;
            if cached && not hit then cv.{base + 1 + ii} <- s_in
          end;
          if at_e.(iu) < infinity then begin
            let s_in = sl_e.(iu) in
            let hit = cached && same_bits cv.{base + 3 + ii} s_in in
            for oi = 0 to 1 do
              let bit = (2 * oi) + ii in
              if mask land (1 lsl bit) <> 0 then begin
                let iv = iv0 + oi in
                let o = base + 6 + (3 * rank mask bit) in
                if hit then begin
                  q.(0) <- cv.{o};
                  q.(1) <- cv.{o + 1}
                end
                else begin
                  Liberty.Lut.eval_pair ~grad:false (delay_lut arc oi)
                    (slew_lut arc oi) s_in load q 0;
                  if cached then begin
                    cv.{o} <- q.(0);
                    cv.{o + 1} <- q.(1)
                  end
                end;
                if at_e.(iu) +. q.(0) < at_e.(iv) then
                  at_e.(iv) <- at_e.(iu) +. q.(0);
                if q.(1) < sl_e.(iv) then sl_e.(iv) <- q.(1)
              end
            done;
            if cached && not hit then cv.{base + 3 + ii} <- s_in
          end
        done
      done;
      for oi = 0 to 1 do
        let iv = iv0 + oi in
        let max_a = q.(2 + oi) in
        if max_a > at.(iv) then at.(iv) <- max_a;
        if q.(4 + oi) > slew.(iv) then slew.(iv) <- q.(4 + oi);
        if pred.(iv) <> net_edge then begin
          let av = at.(iv) in
          pred.(iv) <-
            (if not (Float.is_finite av) then no_edge
             else if av = max_a then if oi = 0 then !best0 else !best1
             else closest_edge t v oi av)
        end
      done
    end

  (* The kernel for one pin: reads strictly lower levels only, writes
     only this pin's state, this pin's fan-in tape slots and (exact)
     their cache blocks. *)
  let pin t ~gamma v =
    if Array.length t.at_e > 0 then pin_exact t v else pin_smooth t ~gamma v

  (* level-synchronous sweep: [f v] may read strictly lower levels only,
     so the pins of one level run data-parallel through [pool] *)
  let sweep ?pool ?obs t f =
    let pool = match pool with Some p -> p | None -> Parallel.sequential_pool in
    Array.iter
      (fun level_pins ->
        (* per-pin cost: one LUT pair query per admitted (arc,
           transition) pair, a second in the early lane, and the net
           arc's Elmore terms *)
        Parallel.parallel_for pool ?obs ~cost:16.0 (Array.length level_pins)
          (fun k -> f level_pins.(k)))
      t.nets.Nets.graph.Graph.levels
end

module Timer = struct
  type endpoint_slack = {
    ep_pin : int;
    ep_setup_slack : float;
    ep_hold_slack : float;
  }

  type report = {
    setup_wns : float;
    setup_tns : float;
    hold_wns : float;
    hold_tns : float;
    endpoint_slacks : endpoint_slack list;
  }

  type update_stats = {
    us_pins : int;
    us_changed : int;
    us_nets : int;
    us_levels : int;
    us_endpoints : int;
  }

  (* The one exact-timer state, shared by [run] and the incremental
     operations of {!Incremental}. *)
  type t = {
    graph : Graph.t;
    nets : Nets.t;
    fwd : Forward.t;  (* late + early state, arc tape, back-pointers *)
    (* late RATs, pulled on demand: pin [p]'s pair is current when
       [rat_mark.(p) = 2 * epoch + 1]; [2 * epoch] marks a pin whose
       fan-out a pull has queued.  [run] and [update] end an epoch. *)
    rat_l : float array;
    rat_mark : int array;
    mutable epoch : int;
    mutable rat_stack : int array;
    (* endpoint slacks by slot, the position in [graph.endpoints];
       nan = unconstrained *)
    ep_slot : int array;           (* per pin; -1 off the endpoints *)
    ep_setup : float array;
    ep_hold : float array;
    ep_rec : endpoint_slack array;
    (* the report's order: constrained slots by setup slack under
       [Float.compare], ties by descending slot *)
    mutable order : int array;
    mutable n_order : int;
    mutable order_tmp : int array;
    changed : int array;           (* slots whose slack bits changed *)
    mutable n_changed : int;
    moved : bool array;            (* per slot: listed in [changed] *)
    mutable report : report;
    net_pending : bool array;      (* net queued for RC refresh *)
    mutable pending_nets : int list;
    dirty : bool array;            (* pin queued for re-evaluation *)
    mutable last_stats : update_stats;
  }

  let create graph =
    let design = graph.Graph.design in
    let npins = Netlist.num_pins design in
    let nets = Nets.create graph in
    let neps = Array.length graph.Graph.endpoints in
    let ep_slot = Array.make npins (-1) in
    Array.iteri (fun s p -> ep_slot.(p) <- s) graph.Graph.endpoints;
    let none = { ep_pin = -1; ep_setup_slack = nan; ep_hold_slack = nan } in
    { graph; nets;
      fwd = Forward.create nets;
      rat_l = Array.make (2 * npins) infinity;
      rat_mark = Array.make npins 0;
      epoch = 1;
      rat_stack = Array.make 64 0;
      ep_slot;
      ep_setup = Array.make neps Float.nan;
      ep_hold = Array.make neps Float.nan;
      ep_rec = Array.make neps none;
      order = Array.make neps 0;
      n_order = 0;
      order_tmp = Array.make neps 0;
      changed = Array.make neps 0;
      n_changed = 0;
      moved = Array.make neps false;
      report =
        { setup_wns = 0.0; setup_tns = 0.0; hold_wns = 0.0; hold_tns = 0.0;
          endpoint_slacks = [] };
      net_pending = Array.make (Netlist.num_nets design) false;
      pending_nets = [];
      dirty = Array.make npins false;
      last_stats =
        { us_pins = 0; us_changed = 0; us_nets = 0; us_levels = 0;
          us_endpoints = 0 } }

  let nets t = t.nets
  let idx p tr = (2 * p) + transition_index tr
  let tr_of ti = if ti = 0 then Rise else Fall
  let at_late t p tr = t.fwd.Forward.at.(idx p tr)
  let at_early t p tr = t.fwd.Forward.at_e.(idx p tr)
  let slew_late t p tr = t.fwd.Forward.slew.(idx p tr)
  let slew_early t p tr = t.fwd.Forward.sl_e.(idx p tr)

  let arc_delay t a ~tr_out ~tr_in =
    t.fwd.Forward.tape_d.((4 * a) + (2 * transition_index tr_out)
                          + transition_index tr_in)

  let arrival_edges t = Array.copy t.fwd.Forward.pred

  let check_lut (ck : Liberty.check_arc) ~setup = function
    | Rise -> if setup then ck.Liberty.setup_rise else ck.Liberty.hold_rise
    | Fall -> if setup then ck.Liberty.setup_fall else ck.Liberty.hold_fall

  (* The late (setup) required time at endpoint [p] for a reached
     transition [tr]. *)
  let required t p tr =
    let cs = t.graph.Graph.constraints in
    let period = cs.Constraints.clock_period in
    match t.graph.Graph.check_of_pin.(p) with
    | Some ck ->
      period
      -. Liberty.Lut.lookup
           (check_lut ck.Graph.ck_arc ~setup:true tr)
           t.fwd.Forward.slew.(idx p tr) cs.Constraints.clock_slew
    | None -> (* primary output *) period -. cs.Constraints.output_delay

  (* Cache endpoint [p]'s (setup, hold) slack pair from the current
     state, nan when it is unreachable, and list its slot when the bits
     changed. *)
  let store_endpoint t p =
    let cs = t.graph.Graph.constraints in
    let at_l = t.fwd.Forward.at in
    let at_e = t.fwd.Forward.at_e and sl_e = t.fwd.Forward.sl_e in
    let setup = ref infinity and hold = ref infinity in
    let reachable = ref false in
    for ti = 0 to 1 do
      let tr = tr_of ti in
      let i = (2 * p) + ti in
      if at_l.(i) > neg_infinity then begin
        reachable := true;
        let sl = required t p tr -. at_l.(i) in
        if sl < !setup then setup := sl
      end;
      if at_e.(i) < infinity then begin
        reachable := true;
        let sl =
          match t.graph.Graph.check_of_pin.(p) with
          | Some ck ->
            at_e.(i)
            -. Liberty.Lut.lookup
                 (check_lut ck.Graph.ck_arc ~setup:false tr)
                 sl_e.(i) cs.Constraints.clock_slew
          | None -> (* primary output: hold required time 0 *) at_e.(i)
        in
        if sl < !hold then hold := sl
      end
    done;
    let su = if !reachable then !setup else Float.nan in
    let ho = if !reachable then !hold else Float.nan in
    let s = t.ep_slot.(p) in
    let same x y = Forward.same_bits x y || (Float.is_nan x && Float.is_nan y) in
    if not (same t.ep_setup.(s) su && same t.ep_hold.(s) ho) then begin
      t.ep_setup.(s) <- su;
      t.ep_hold.(s) <- ho;
      if !reachable then
        t.ep_rec.(s) <- { ep_pin = p; ep_setup_slack = su; ep_hold_slack = ho };
      if not t.moved.(s) then begin
        t.moved.(s) <- true;
        t.changed.(t.n_changed) <- s;
        t.n_changed <- t.n_changed + 1
      end
    end

  (* Pin [v]'s late RAT pair from its endpoint check and its fan-out,
     whose RATs are current: per fan-out edge, the fold the backward
     sweep makes.  The strict [<] folds keep the min, whatever the
     visit order, of every candidate but -0.0 against +0.0; a -0.0
     candidate needs a -0.0 RAT above it (x - y is -0.0 only for
     x = -0.0, y = +0.0), and so a -0.0 required time, which needs a
     clock period of -0.0. *)
  let rat_from_fanout t v =
    let g = t.graph in
    let nets = t.nets in
    let at_l = t.fwd.Forward.at and tape_d = t.fwd.Forward.tape_d in
    let rat = t.rat_l in
    let i0 = 2 * v in
    rat.(i0) <- infinity;
    rat.(i0 + 1) <- infinity;
    if g.Graph.is_endpoint.(v) then
      for ti = 0 to 1 do
        if at_l.(i0 + ti) > neg_infinity then begin
          let r = required t v (tr_of ti) in
          if r < rat.(i0 + ti) then rat.(i0 + ti) <- r
        end
      done;
    (* net arcs into the sinks [v] drives *)
    let net = g.Graph.design.Netlist.pins.(v).Netlist.net in
    (if net >= 0 && g.Graph.net_driver_of.(net) = v then
       match nets.Nets.trees.(net) with
       | Some (_, rc) ->
         for k = g.Graph.net_sink_off.(net) to g.Graph.net_sink_off.(net + 1) - 1
         do
           let w = g.Graph.net_sink.(k) in
           if w <> v then begin
             let d = Rc.sink_delay rc nets.Nets.tree_index.(w) in
             for ti = 0 to 1 do
               let iw = (2 * w) + ti in
               if rat.(iw) < infinity then begin
                 let cand = rat.(iw) -. d in
                 if cand < rat.(i0 + ti) then rat.(i0 + ti) <- cand
               end
             done
           end
         done
       | None -> ());
    (* cell arcs out of [v] *)
    for k = g.Graph.fanout_off.(v) to g.Graph.fanout_off.(v + 1) - 1 do
      let a = g.Graph.fanout_arc.(k) in
      let w = g.Graph.arc_to.(a) in
      let mask = g.Graph.arc_mask.(a) in
      for oi = 0 to 1 do
        let iw = (2 * w) + oi in
        if rat.(iw) < infinity then begin
          let sub = (mask lsr (2 * oi)) land 3 in
          for ii = 0 to 1 do
            let iu = i0 + ii in
            if sub land (1 lsl ii) <> 0 && at_l.(iu) > neg_infinity then begin
              let cand = rat.(iw) -. tape_d.((4 * a) + (2 * oi) + ii) in
              if cand < rat.(iu) then rat.(iu) <- cand
            end
          done
        end
      done
    done

  let push_rat t sp w =
    if sp = Array.length t.rat_stack then begin
      let s = Array.make (2 * sp) 0 in
      Array.blit t.rat_stack 0 s 0 sp;
      t.rat_stack <- s
    end;
    t.rat_stack.(sp) <- w

  (* Bring pin [p]'s RAT current: a depth-first walk of its fan-out
     cone that computes each pin once its fan-out is current, and only
     the pins this epoch has not computed yet. *)
  let pull_rat t p =
    let current = (2 * t.epoch) + 1 in
    if t.rat_mark.(p) <> current then begin
      let g = t.graph in
      let mark = t.rat_mark in
      let sp = ref 0 in
      push_rat t 0 p;
      sp := 1;
      while !sp > 0 do
        let v = t.rat_stack.(!sp - 1) in
        if mark.(v) = current then decr sp
        else if mark.(v) = current - 1 then begin
          rat_from_fanout t v;
          mark.(v) <- current;
          decr sp
        end
        else begin
          mark.(v) <- current - 1;
          let net = g.Graph.design.Netlist.pins.(v).Netlist.net in
          if net >= 0 && g.Graph.net_driver_of.(net) = v then
            for k = g.Graph.net_sink_off.(net)
                to g.Graph.net_sink_off.(net + 1) - 1 do
              let w = g.Graph.net_sink.(k) in
              if w <> v && mark.(w) <> current then begin
                push_rat t !sp w;
                incr sp
              end
            done;
          for k = g.Graph.fanout_off.(v) to g.Graph.fanout_off.(v + 1) - 1 do
            let w = g.Graph.arc_to.(g.Graph.fanout_arc.(k)) in
            if mark.(w) <> current then begin
              push_rat t !sp w;
              incr sp
            end
          done
        end
      done
    end

  let rat_late t p tr =
    pull_rat t p;
    t.rat_l.(idx p tr)

  (* every pin at once: the same per-pin gather, in descending level
     order, so each pin's fan-out is current when it is reached *)
  let pull_all_rats t =
    let current = (2 * t.epoch) + 1 in
    let levels = t.graph.Graph.levels in
    for l = Array.length levels - 1 downto 0 do
      Array.iter
        (fun v ->
          if t.rat_mark.(v) <> current then begin
            rat_from_fanout t v;
            t.rat_mark.(v) <- current
          end)
        levels.(l)
    done

  let compare_slots t a b =
    let c = Float.compare t.ep_setup.(a) t.ep_setup.(b) in
    if c <> 0 then c else Int.compare b a

  (* Re-place the changed slots: drop them from the order, then merge
     the constrained ones back in, sorted. *)
  let reorder t =
    let kept = ref 0 in
    for i = 0 to t.n_order - 1 do
      let s = t.order.(i) in
      if not t.moved.(s) then begin
        t.order.(!kept) <- s;
        incr kept
      end
    done;
    let n_in = ref 0 in
    for i = 0 to t.n_changed - 1 do
      let s = t.changed.(i) in
      t.moved.(s) <- false;
      if not (Float.is_nan t.ep_setup.(s)) then begin
        t.changed.(!n_in) <- s;
        incr n_in
      end
    done;
    t.n_changed <- 0;
    let ins = Array.sub t.changed 0 !n_in in
    Array.sort (compare_slots t) ins;
    let out = t.order_tmp in
    let i = ref 0 and j = ref 0 in
    for o = 0 to !kept + !n_in - 1 do
      if !j >= !n_in
         || (!i < !kept && compare_slots t t.order.(!i) ins.(!j) < 0)
      then begin
        out.(o) <- t.order.(!i);
        incr i
      end
      else begin
        out.(o) <- ins.(!j);
        incr j
      end
    done;
    t.order_tmp <- t.order;
    t.order <- out;
    t.n_order <- !kept + !n_in

  (* WNS/TNS over the slots in endpoint order, the list in report
     order *)
  let make_report t =
    let setup_wns = ref infinity and setup_tns = ref 0.0 in
    let hold_wns = ref infinity and hold_tns = ref 0.0 in
    for s = 0 to Array.length t.ep_setup - 1 do
      let su = t.ep_setup.(s) in
      if not (Float.is_nan su) then begin
        let ho = t.ep_hold.(s) in
        if su < !setup_wns then setup_wns := su;
        if su < 0.0 then setup_tns := !setup_tns +. su;
        if ho < !hold_wns then hold_wns := ho;
        if ho < 0.0 then hold_tns := !hold_tns +. ho
      end
    done;
    let slacks = ref [] in
    for i = t.n_order - 1 downto 0 do
      slacks := t.ep_rec.(t.order.(i)) :: !slacks
    done;
    { setup_wns = (if !setup_wns = infinity then 0.0 else !setup_wns);
      setup_tns = !setup_tns;
      hold_wns = (if !hold_wns = infinity then 0.0 else !hold_wns);
      hold_tns = !hold_tns;
      endpoint_slacks = !slacks }

  (* The shared ending of [run] and [Incremental.update], once the
     endpoints they re-timed are in the cache: the propagation has seen
     every queued move, the report re-places the endpoints whose slacks
     changed, and per-pin RATs wait for their first read. *)
  let settle t =
    List.iter (fun net -> t.net_pending.(net) <- false) t.pending_nets;
    t.pending_nets <- [];
    t.epoch <- t.epoch + 1;
    if t.n_changed > 0 then begin
      reorder t;
      t.report <- make_report t
    end;
    t.report

  let k_exact = Obs.kernel "sta.exact"

  let run ?(rebuild_trees = true) ?pool ?(obs = Obs.disabled) t =
    if rebuild_trees then Nets.rebuild ?pool ~obs t.nets
    else Nets.refresh ?pool ~obs t.nets;
    Obs.start obs k_exact;
    Forward.reset t.fwd;
    Forward.sweep ?pool ~obs t.fwd (Forward.pin t.fwd ~gamma:0.0);
    Array.iter (store_endpoint t) t.graph.Graph.endpoints;
    let report = settle t in
    Obs.stop obs;
    report

  let pin_slack_late t p =
    pull_rat t p;
    let at_l = t.fwd.Forward.at in
    let best = ref infinity in
    for i = 2 * p to (2 * p) + 1 do
      if at_l.(i) > neg_infinity && t.rat_l.(i) < infinity then begin
        let s = t.rat_l.(i) -. at_l.(i) in
        if s < !best then best := s
      end
    done;
    !best

  let net_slack t n =
    let pins = t.graph.Graph.design.Netlist.nets.(n).Netlist.net_pins in
    Array.fold_left (fun acc p -> Float.min acc (pin_slack_late t p)) infinity pins

  type path_step = {
    ps_pin : int;
    ps_transition : transition;
    ps_at : float;
    ps_slew : float;
  }

  let pp_path graph ppf steps =
    let design = graph.Graph.design in
    Format.fprintf ppf "@[<v>";
    List.iter
      (fun s ->
        Format.fprintf ppf "%-24s %a at %8.1f ps  slew %6.1f ps@,"
          design.Netlist.pins.(s.ps_pin).Netlist.pin_name pp_transition
          s.ps_transition s.ps_at s.ps_slew)
      steps;
    Format.fprintf ppf "@]"

  let pp_report ppf r =
    Format.fprintf ppf
      "@[<v>setup: WNS %.1f ps, TNS %.1f ps@,hold: WNS %.1f ps, TNS %.1f ps@,\
       endpoints: %d@]"
      r.setup_wns r.setup_tns r.hold_wns r.hold_tns
      (List.length r.endpoint_slacks)
end

module Incremental = struct
  type t = Timer.t

  type update_stats = Timer.update_stats = {
    us_pins : int;
    us_changed : int;
    us_nets : int;
    us_levels : int;
    us_endpoints : int;
  }

  let last_stats (t : t) = t.Timer.last_stats

  let create graph =
    let t = Timer.create graph in
    Forward.cache_pairs t.Timer.fwd;
    ignore (Timer.run t);
    t

  let queue_net (t : t) net =
    if net >= 0 && not t.Timer.net_pending.(net) then begin
      t.Timer.net_pending.(net) <- true;
      t.Timer.pending_nets <- net :: t.Timer.pending_nets
    end

  (* Mirror the legalizer's placement domain: a movable cell whose
     bounding box lies inside the core region.  Accepting anything else
     (a fixed pad, an off-core or non-finite coordinate) desynchronises
     the timer from the placement the legalizer will later enforce, so
     such moves are rejected loudly instead of silently taken. *)
  let validate_move (t : t) cell ~x ~y =
    let design = t.Timer.graph.Graph.design in
    if cell < 0 || cell >= Netlist.num_cells design then
      invalid_arg
        (Printf.sprintf "Sta.Incremental.move_cell: cell %d out of range"
           cell);
    let c = design.Netlist.cells.(cell) in
    if c.Netlist.fixed then
      invalid_arg
        (Printf.sprintf
           "Sta.Incremental.move_cell: cell %s is fixed (pad/macro)"
           c.Netlist.cell_name);
    if not (Float.is_finite x && Float.is_finite y) then
      invalid_arg
        (Printf.sprintf
           "Sta.Incremental.move_cell: non-finite target (%g, %g) for %s" x y
           c.Netlist.cell_name);
    let r = design.Netlist.region in
    let hw = c.Netlist.width /. 2.0 and hh = c.Netlist.height /. 2.0 in
    let eps = 1e-9 in
    if
      x -. hw < r.Geometry.Rect.lx -. eps
      || x +. hw > r.Geometry.Rect.hx +. eps
      || y -. hh < r.Geometry.Rect.ly -. eps
      || y +. hh > r.Geometry.Rect.hy +. eps
    then
      invalid_arg
        (Printf.sprintf
           "Sta.Incremental.move_cell: %s at (%g, %g) leaves the core region"
           c.Netlist.cell_name x y)

  let move_cell (t : t) cell ~x ~y =
    validate_move t cell ~x ~y;
    let design = t.Timer.graph.Graph.design in
    let c = design.Netlist.cells.(cell) in
    c.Netlist.x <- x;
    c.Netlist.y <- y;
    Array.iter
      (fun p -> queue_net t design.Netlist.pins.(p).Netlist.net)
      c.Netlist.cell_pins

  (* Re-evaluate one pin from its fan-in state: the shared kernel at
     gamma 0, which also refreshes the pin's fan-in tape slots and its
     early lane.  Returns true when any of its eight timing values
     changed.  The comparison must be NaN-aware ([Float.equal], not
     [<>]): a NaN-valued pin (e.g. below an unconstrained input)
     recomputes to the same NaN, and the naive [nan <> nan = true] would
     re-dirty its entire fanout cone on every pass. *)
  let reevaluate (t : t) v =
    let { Forward.at; slew; at_e; sl_e; _ } = t.Timer.fwd in
    let ir = Timer.idx v Rise and if_ = Timer.idx v Fall in
    let o1 = at.(ir) and o2 = at.(if_) in
    let o3 = at_e.(ir) and o4 = at_e.(if_) in
    let o5 = slew.(ir) and o6 = slew.(if_) in
    let o7 = sl_e.(ir) and o8 = sl_e.(if_) in
    at.(ir) <- neg_infinity;
    at.(if_) <- neg_infinity;
    at_e.(ir) <- infinity;
    at_e.(if_) <- infinity;
    slew.(ir) <- 0.0;
    slew.(if_) <- 0.0;
    sl_e.(ir) <- infinity;
    sl_e.(if_) <- infinity;
    Forward.pin t.Timer.fwd ~gamma:0.0 v;
    not
      (Float.equal o1 at.(ir)
       && Float.equal o2 at.(if_)
       && Float.equal o3 at_e.(ir)
       && Float.equal o4 at_e.(if_)
       && Float.equal o5 slew.(ir)
       && Float.equal o6 slew.(if_)
       && Float.equal o7 sl_e.(ir)
       && Float.equal o8 sl_e.(if_))

  let k_incremental = Obs.kernel "sta.incremental"

  let update ?(obs = Obs.disabled) (t : t) =
    Obs.start obs k_incremental;
    Forward.cache_pairs t.Timer.fwd;
    let g = t.Timer.graph in
    let design = g.Graph.design in
    let nlevels = Array.length g.Graph.levels in
    let buckets = Array.make nlevels [] in
    let mark v =
      if not t.Timer.dirty.(v) then begin
        t.Timer.dirty.(v) <- true;
        let l = g.Graph.pin_level.(v) in
        buckets.(l) <- v :: buckets.(l)
      end
    in
    (* refresh the RC state of every touched net and seed dirtiness *)
    let net_count = ref 0 in
    List.iter
      (fun net ->
        incr net_count;
        match t.Timer.nets.Nets.trees.(net) with
        | None -> ()
        | Some tree ->
          let pins = design.Netlist.nets.(net).Netlist.net_pins in
          Nets.refresh_net design tree pins;
          Array.iter mark pins)
      t.Timer.pending_nets;
    (* level-ordered sparse propagation; a pin's state is final once its
       level is done, so a dirty endpoint's slack is cached right away *)
    let count = ref 0 and changed_count = ref 0 and level_count = ref 0 in
    let endpoint_count = ref 0 in
    for l = 0 to nlevels - 1 do
      (* marks added during processing always target higher levels *)
      if buckets.(l) <> [] then incr level_count;
      List.iter
        (fun v ->
          t.Timer.dirty.(v) <- false;
          incr count;
          let changed =
            if g.Graph.is_start.(v) then false else reevaluate t v
          in
          if g.Graph.is_endpoint.(v) then begin
            Timer.store_endpoint t v;
            incr endpoint_count
          end;
          if changed then begin
            incr changed_count;
            (* fan-outs: net sinks when v drives a net, plus cell arcs *)
            let pin = design.Netlist.pins.(v) in
            let net = pin.Netlist.net in
            (if pin.Netlist.direction = Netlist.Output && net >= 0
                && g.Graph.net_driver_of.(net) = v
             then
               for k = g.Graph.net_sink_off.(net)
                   to g.Graph.net_sink_off.(net + 1) - 1
               do
                 mark g.Graph.net_sink.(k)
               done);
            for k = g.Graph.fanout_off.(v) to g.Graph.fanout_off.(v + 1) - 1
            do
              mark g.Graph.arc_to.(g.Graph.fanout_arc.(k))
            done
          end)
        (List.rev buckets.(l));
      buckets.(l) <- []
    done;
    t.Timer.last_stats <-
      { us_pins = !count; us_changed = !changed_count; us_nets = !net_count;
        us_levels = !level_count; us_endpoints = !endpoint_count };
    let report = Timer.settle t in
    if Obs.enabled obs then begin
      Obs.add obs "sta.inc.pins" (float_of_int !count);
      Obs.add obs "sta.inc.nets" (float_of_int !net_count);
      Obs.add obs "sta.inc.changed" (float_of_int !changed_count)
    end;
    Obs.stop obs;
    report
end
