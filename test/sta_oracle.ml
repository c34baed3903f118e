(* Test-only oracle: the exact timer's forward and RAT sweeps as they
   were before the shared forward kernel ([Sta.Forward]), kept verbatim
   (module paths qualified, LUT queries through [Lut_oracle]) so the
   kernel-based [Sta.Timer.run] can be checked bit for bit against an
   independent implementation.  It reads
   the Steiner/RC state of a [Sta.Nets.t] as is and never rebuilds or
   refreshes trees. *)

open Sta

type t = {
  graph : Graph.t;
  nets : Nets.t;
  at_l : float array;   (* 2 * pin + transition *)
  at_e : float array;
  sl_l : float array;
  sl_e : float array;
  rat_l : float array;
  rat_e : float array;
}

let create (nets : Nets.t) =
  let graph = nets.Nets.graph in
  let n = 2 * Netlist.num_pins graph.Graph.design in
  { graph;
    nets;
    at_l = Array.make n neg_infinity;
    at_e = Array.make n infinity;
    sl_l = Array.make n 0.0;
    sl_e = Array.make n infinity;
    rat_l = Array.make n infinity;
    rat_e = Array.make n neg_infinity }

let idx p tr = (2 * p) + transition_index tr
let both_transitions = [ Rise; Fall ]

(* LUT selection keyed by transition index (0 = rise, 1 = fall) *)
let delay_lut_i (arc : Liberty.timing_arc) oi =
  if oi = 0 then arc.Liberty.cell_rise else arc.Liberty.cell_fall

let slew_lut_i (arc : Liberty.timing_arc) oi =
  if oi = 0 then arc.Liberty.rise_transition
  else arc.Liberty.fall_transition

let tree_of t pin =
  let design = t.graph.Graph.design in
  let net = design.Netlist.pins.(pin).Netlist.net in
  if net < 0 then None else t.nets.Nets.trees.(net)

let root_load_of t pin =
  match tree_of t pin with None -> 0.0 | Some (_, rc) -> Rc.root_load rc

let propagate_net_arc t v =
  let g = t.graph in
  let pin = g.Graph.design.Netlist.pins.(v) in
  let net = pin.Netlist.net in
  if pin.Netlist.direction = Netlist.Input && net >= 0 then begin
    let u = g.Graph.net_driver_of.(net) in
    if u >= 0 && u <> v then
      match t.nets.Nets.trees.(net) with
      | Some (_, rc) ->
        let node = t.nets.Nets.tree_index.(v) in
        let d = Rc.sink_delay rc node in
        let i2 = Rc.sink_impulse2 rc node in
        for ti = 0 to 1 do
          let iu = (2 * u) + ti and iv = (2 * v) + ti in
          if t.at_l.(iu) > neg_infinity then begin
            t.at_l.(iv) <- t.at_l.(iu) +. d;
            t.sl_l.(iv) <- sqrt ((t.sl_l.(iu) *. t.sl_l.(iu)) +. i2)
          end;
          if t.at_e.(iu) < infinity then begin
            t.at_e.(iv) <- t.at_e.(iu) +. d;
            t.sl_e.(iv) <- sqrt ((t.sl_e.(iu) *. t.sl_e.(iu)) +. i2)
          end
        done
      | None -> ()
  end

let propagate_cell_arcs t v =
  let g = t.graph in
  let lo = g.Graph.fanin_off.(v) and hi = g.Graph.fanin_off.(v + 1) in
  if hi > lo then begin
    let load = root_load_of t v in
    for k = lo to hi - 1 do
      let a = g.Graph.fanin_arc.(k) in
      let u = g.Graph.arc_from.(a) in
      let arc = g.Graph.arc_table.(a) in
      let mask = g.Graph.arc_mask.(a) in
      for oi = 0 to 1 do
        let iv = (2 * v) + oi in
        let sub = (mask lsr (2 * oi)) land 3 in
        for ii = 0 to 1 do
          if sub land (1 lsl ii) <> 0 then begin
            let iu = (2 * u) + ii in
            if t.at_l.(iu) > neg_infinity then begin
              let d =
                Lut_oracle.lookup (delay_lut_i arc oi) t.sl_l.(iu) load
              in
              let s =
                Lut_oracle.lookup (slew_lut_i arc oi) t.sl_l.(iu) load
              in
              if t.at_l.(iu) +. d > t.at_l.(iv) then
                t.at_l.(iv) <- t.at_l.(iu) +. d;
              if s > t.sl_l.(iv) then t.sl_l.(iv) <- s
            end;
            if t.at_e.(iu) < infinity then begin
              let d =
                Lut_oracle.lookup (delay_lut_i arc oi) t.sl_e.(iu) load
              in
              let s =
                Lut_oracle.lookup (slew_lut_i arc oi) t.sl_e.(iu) load
              in
              if t.at_e.(iu) +. d < t.at_e.(iv) then
                t.at_e.(iv) <- t.at_e.(iu) +. d;
              if s < t.sl_e.(iv) then t.sl_e.(iv) <- s
            end
          end
        done
      done
    done
  end

let check_lut (ck : Liberty.check_arc) ~setup = function
  | Rise -> if setup then ck.Liberty.setup_rise else ck.Liberty.hold_rise
  | Fall -> if setup then ck.Liberty.setup_fall else ck.Liberty.hold_fall

(* Endpoint required times; returns (setup_slack, hold_slack) or None
   when the endpoint is unreachable. *)
let endpoint_slack t p =
  let cs = t.graph.Graph.constraints in
  let period = cs.Constraints.clock_period in
  let setup = ref infinity and hold = ref infinity in
  let reachable = ref false in
  List.iter
    (fun tr ->
      let i = idx p tr in
      (match t.graph.Graph.check_of_pin.(p) with
       | Some ck ->
         if t.at_l.(i) > neg_infinity then begin
           reachable := true;
           let su =
             Lut_oracle.lookup
               (check_lut ck.Graph.ck_arc ~setup:true tr)
               t.sl_l.(i) cs.Constraints.clock_slew
           in
           let rat = period -. su in
           if rat < t.rat_l.(i) then t.rat_l.(i) <- rat;
           let sl = rat -. t.at_l.(i) in
           if sl < !setup then setup := sl
         end;
         if t.at_e.(i) < infinity then begin
           reachable := true;
           let ho =
             Lut_oracle.lookup
               (check_lut ck.Graph.ck_arc ~setup:false tr)
               t.sl_e.(i) cs.Constraints.clock_slew
           in
           if ho > t.rat_e.(i) then t.rat_e.(i) <- ho;
           let sl = t.at_e.(i) -. ho in
           if sl < !hold then hold := sl
         end
       | None ->
         (* primary output *)
         if t.at_l.(i) > neg_infinity then begin
           reachable := true;
           let rat = period -. cs.Constraints.output_delay in
           if rat < t.rat_l.(i) then t.rat_l.(i) <- rat;
           let sl = rat -. t.at_l.(i) in
           if sl < !setup then setup := sl
         end;
         if t.at_e.(i) < infinity then begin
           reachable := true;
           t.rat_e.(i) <- Float.max t.rat_e.(i) 0.0;
           let sl = t.at_e.(i) in
           if sl < !hold then hold := sl
         end))
    both_transitions;
  if !reachable then Some (!setup, !hold) else None

(* Late RAT back-propagation for per-pin slack reporting. *)
let propagate_rat t =
  let g = t.graph in
  let design = g.Graph.design in
  let levels = g.Graph.levels in
  for l = Array.length levels - 1 downto 0 do
    Array.iter
      (fun v ->
        let pin = design.Netlist.pins.(v) in
        let net = pin.Netlist.net in
        (* push through the net arc into the driver *)
        (if pin.Netlist.direction = Netlist.Input && net >= 0 then
           let u = g.Graph.net_driver_of.(net) in
           if u >= 0 && u <> v then
             match t.nets.Nets.trees.(net) with
             | Some (_, rc) ->
               let d = Rc.sink_delay rc t.nets.Nets.tree_index.(v) in
               for ti = 0 to 1 do
                 let iv = (2 * v) + ti and iu = (2 * u) + ti in
                 if t.rat_l.(iv) < infinity then begin
                   let cand = t.rat_l.(iv) -. d in
                   if cand < t.rat_l.(iu) then t.rat_l.(iu) <- cand
                 end
               done
             | None -> ());
        (* push through cell arcs into the arc inputs *)
        let lo = g.Graph.fanin_off.(v) and hi = g.Graph.fanin_off.(v + 1) in
        if hi > lo then begin
          let load = root_load_of t v in
          for k = lo to hi - 1 do
            let a = g.Graph.fanin_arc.(k) in
            let u = g.Graph.arc_from.(a) in
            let arc = g.Graph.arc_table.(a) in
            let mask = g.Graph.arc_mask.(a) in
            for oi = 0 to 1 do
              let iv = (2 * v) + oi in
              if t.rat_l.(iv) < infinity then begin
                let sub = (mask lsr (2 * oi)) land 3 in
                for ii = 0 to 1 do
                  if sub land (1 lsl ii) <> 0 then begin
                    let iu = (2 * u) + ii in
                    if t.at_l.(iu) > neg_infinity then begin
                      let d =
                        Lut_oracle.lookup (delay_lut_i arc oi)
                          t.sl_l.(iu) load
                      in
                      let cand = t.rat_l.(iv) -. d in
                      if cand < t.rat_l.(iu) then t.rat_l.(iu) <- cand
                    end
                  end
                done
              end
            done
          done
        end)
      levels.(l)
  done

(* The report as the timer built it before it kept its endpoint order
   across updates: over the endpoints, in endpoint order; [slack_of p]
   is the endpoint's (setup, hold) slack pair, None when unconstrained.
   The list is a stable sort of the reversed endpoint order, so setup
   slack ties list the later endpoint first. *)
let report_of (g : Graph.t) slack_of =
  let slacks = ref [] in
  let setup_wns = ref infinity and setup_tns = ref 0.0 in
  let hold_wns = ref infinity and hold_tns = ref 0.0 in
  Array.iter
    (fun p ->
      match slack_of p with
      | None -> ()
      | Some (su, ho) ->
        slacks :=
          { Timer.ep_pin = p; ep_setup_slack = su; ep_hold_slack = ho }
          :: !slacks;
        if su < !setup_wns then setup_wns := su;
        if su < 0.0 then setup_tns := !setup_tns +. su;
        if ho < !hold_wns then hold_wns := ho;
        if ho < 0.0 then hold_tns := !hold_tns +. ho)
    g.Graph.endpoints;
  { Timer.setup_wns = (if !setup_wns = infinity then 0.0 else !setup_wns);
    setup_tns = !setup_tns;
    hold_wns = (if !hold_wns = infinity then 0.0 else !hold_wns);
    hold_tns = !hold_tns;
    endpoint_slacks =
      List.sort
        (fun (a : Timer.endpoint_slack) b ->
          Float.compare a.Timer.ep_setup_slack b.Timer.ep_setup_slack)
        !slacks }

(* [Sta.Timer.run] minus the tree maintenance: propagate on the Nets
   state as it stands. *)
let run t =
  let g = t.graph in
  let cs = g.Graph.constraints in
  Array.fill t.at_l 0 (Array.length t.at_l) neg_infinity;
  Array.fill t.at_e 0 (Array.length t.at_e) infinity;
  Array.fill t.sl_l 0 (Array.length t.sl_l) 0.0;
  Array.fill t.sl_e 0 (Array.length t.sl_e) infinity;
  Array.fill t.rat_l 0 (Array.length t.rat_l) infinity;
  Array.fill t.rat_e 0 (Array.length t.rat_e) neg_infinity;
  List.iter
    (fun p ->
      List.iter
        (fun tr ->
          let i = idx p tr in
          t.at_l.(i) <- cs.Constraints.input_delay;
          t.at_e.(i) <- cs.Constraints.input_delay;
          t.sl_l.(i) <- cs.Constraints.input_slew;
          t.sl_e.(i) <- cs.Constraints.input_slew)
        both_transitions)
    g.Graph.primary_inputs;
  Array.iteri
    (fun p clock ->
      if clock then
        List.iter
          (fun tr ->
            let i = idx p tr in
            t.at_l.(i) <- 0.0;
            t.at_e.(i) <- 0.0;
            t.sl_l.(i) <- cs.Constraints.clock_slew;
            t.sl_e.(i) <- cs.Constraints.clock_slew)
          both_transitions)
    g.Graph.is_clock_pin;
  Array.iter
    (fun level_pins ->
      Array.iter
        (fun v ->
          propagate_net_arc t v;
          propagate_cell_arcs t v)
        level_pins)
    g.Graph.levels;
  let report = report_of g (endpoint_slack t) in
  propagate_rat t;
  report

(* The exact timer's arrival-time retrace as it was before top-K path
   enumeration ([Paths]) became the only path search in the library,
   kept verbatim except that it reads the timer through its public
   accessors: at every pin, find the fan-in contribution whose (at +
   taped delay) reproduces the pin's AT.  [endpoint] defaults to the
   worst-slack endpoint (first in endpoint order on ties); the rank-0
   path of [Paths.enumerate_endpoint] / [Paths.enumerate] must match it
   bit for bit. *)
let critical_path ?endpoint (tm : Timer.t) =
  let g = (Timer.nets tm).Nets.graph in
  let design = g.Graph.design in
  let pick_endpoint () =
    let best = ref (-1) and best_slack = ref infinity in
    Array.iter
      (fun p ->
        let s = Timer.pin_slack_late tm p in
        if s < !best_slack then begin
          best := p;
          best_slack := s
        end)
      g.Graph.endpoints;
    !best
  in
  let p0 = match endpoint with Some p -> p | None -> pick_endpoint () in
  if p0 < 0 then []
  else begin
    let start_tr =
      let slack tr =
        if Timer.at_late tm p0 tr > neg_infinity then
          Timer.rat_late tm p0 tr -. Timer.at_late tm p0 tr
        else infinity
      in
      if slack Rise <= slack Fall then Rise else Fall
    in
    if Timer.at_late tm p0 start_tr = neg_infinity then []
    else begin
      let rec walk acc v tr guard =
        let step =
          { Timer.ps_pin = v; ps_transition = tr;
            ps_at = Timer.at_late tm v tr; ps_slew = Timer.slew_late tm v tr }
        in
        let acc = step :: acc in
        if guard <= 0 then acc
        else begin
          let pin = design.Netlist.pins.(v) in
          let net = pin.Netlist.net in
          (* net arc predecessor *)
          let via_net =
            if pin.Netlist.direction = Netlist.Input && net >= 0
               && (Timer.nets tm).Nets.trees.(net) <> None
            then begin
              let u = g.Graph.net_driver_of.(net) in
              if u >= 0 && u <> v && Timer.at_late tm u tr > neg_infinity then
                Some (u, tr)
              else None
            end
            else None
          in
          match via_net with
          | Some (u, tr_in) -> walk acc u tr_in (guard - 1)
          | None ->
            (* cell arc predecessor: the contribution realising AT *)
            let oi = transition_index tr in
            let best = ref None and best_err = ref infinity in
            for k = g.Graph.fanin_off.(v) to g.Graph.fanin_off.(v + 1) - 1 do
              let a = g.Graph.fanin_arc.(k) in
              let u = g.Graph.arc_from.(a) in
              let sub = (g.Graph.arc_mask.(a) lsr (2 * oi)) land 3 in
              for ii = 0 to 1 do
                if sub land (1 lsl ii) <> 0 then begin
                  let tr_in = if ii = 0 then Rise else Fall in
                  let at_u = Timer.at_late tm u tr_in in
                  if at_u > neg_infinity then begin
                    let d = Timer.arc_delay tm a ~tr_out:tr ~tr_in in
                    let err = Float.abs (at_u +. d -. Timer.at_late tm v tr) in
                    if err < !best_err then begin
                      best_err := err;
                      best := Some (u, tr_in)
                    end
                  end
                end
              done
            done;
            (match !best with
             | Some (u, tr_in) -> walk acc u tr_in (guard - 1)
             | None -> acc)
        end
      in
      walk [] p0 start_tr (4 * Netlist.num_pins design)
    end
  end
