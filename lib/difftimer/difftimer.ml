type metrics = {
  wns : float;
  tns : float;
  wns_smooth : float;
  tns_smooth : float;
  endpoint_count : int;
}

(* Per-worker scratch for the per-net Elmore adjoint: node- and pin-sized
   work buffers (grown on demand; rebuilt trees may gain nodes), the RC
   adjoint scratch, and a full per-cell gradient accumulator used when
   nets are sliced across workers. *)
type net_scratch = {
  mutable ns_node_gd : float array;
  mutable ns_node_gi2 : float array;
  mutable ns_node_gx : float array;
  mutable ns_node_gy : float array;
  mutable ns_pin_gx : float array;
  mutable ns_pin_gy : float array;
  ns_rc : Rc.scratch;
  ns_gx : float array;
  ns_gy : float array;
}

type t = {
  graph : Sta.Graph.t;
  fwd : Sta.Forward.t;  (* smoothed late state + LUT tape at [gamma_] *)
  gamma_ : float;
  g_at : float array;
  g_slew : float array;
  ep_slack_tr : float array;  (* per transition endpoint slack *)
  ep_dsetup : float array;    (* d setup / d data slew at endpoints *)
  ep_slack : float array;     (* per pin smoothed endpoint slack *)
  g_net_delay : float array;  (* per sink pin *)
  g_i2 : float array;
  g_root_load : float array;  (* per net *)
  mutable wns_smooth_ : float;
  mutable slices : net_scratch array;
  mutable hint_nodes : int;  (* initial sizing for fresh slices *)
  mutable hint_pins : int;
}

let make_net_scratch ~ncells ~nodes ~pins =
  let nodes = max 1 nodes and pins = max 1 pins in
  { ns_node_gd = Array.make nodes 0.0;
    ns_node_gi2 = Array.make nodes 0.0;
    ns_node_gx = Array.make nodes 0.0;
    ns_node_gy = Array.make nodes 0.0;
    ns_pin_gx = Array.make pins 0.0;
    ns_pin_gy = Array.make pins 0.0;
    ns_rc = Rc.make_scratch nodes;
    ns_gx = Array.make ncells 0.0;
    ns_gy = Array.make ncells 0.0 }

let ensure_net_scratch ns nnodes npins_net =
  if Array.length ns.ns_node_gd < nnodes then begin
    let n = max nnodes (2 * Array.length ns.ns_node_gd) in
    ns.ns_node_gd <- Array.make n 0.0;
    ns.ns_node_gi2 <- Array.make n 0.0;
    ns.ns_node_gx <- Array.make n 0.0;
    ns.ns_node_gy <- Array.make n 0.0
  end;
  if Array.length ns.ns_pin_gx < npins_net then begin
    let n = max npins_net (2 * Array.length ns.ns_pin_gx) in
    ns.ns_pin_gx <- Array.make n 0.0;
    ns.ns_pin_gy <- Array.make n 0.0
  end

let ensure_slices t k =
  let have = Array.length t.slices in
  if have < k then begin
    let ncells = Netlist.num_cells t.graph.Sta.Graph.design in
    t.slices <-
      Array.init k (fun s ->
        if s < have then t.slices.(s)
        else
          make_net_scratch ~ncells ~nodes:t.hint_nodes ~pins:t.hint_pins)
  end

let softmin0 ~gamma s =
  let r = -.s /. gamma in
  if r > 40.0 then s
  else if r < -40.0 then -.gamma *. exp r
  else -.gamma *. Float.log1p (exp r)

(* d softmin0 / d s = sigmoid (-s / gamma) *)
let softmin0_grad ~gamma s =
  let r = s /. gamma in
  if r > 40.0 then 0.0
  else if r < -40.0 then 1.0
  else 1.0 /. (1.0 +. exp r)

let create ?(gamma = 100.0) graph =
  let design = graph.Sta.Graph.design in
  let npins = Netlist.num_pins design in
  let nnets = Netlist.num_nets design in
  let nets = Sta.Nets.create graph in
  let max_nodes = ref 1 and max_pins = ref 1 in
  Array.iter
    (fun entry ->
      match entry with
      | None -> ()
      | Some (tree, _) ->
        max_nodes := max !max_nodes (Steiner.node_count tree);
        max_pins := max !max_pins tree.Steiner.pin_count)
    nets.Sta.Nets.trees;
  { graph; fwd = Sta.Forward.create ~smooth:true nets; gamma_ = gamma;
    g_at = Array.make (2 * npins) 0.0;
    g_slew = Array.make (2 * npins) 0.0;
    ep_slack_tr = Array.make (2 * npins) infinity;
    ep_dsetup = Array.make (2 * npins) 0.0;
    ep_slack = Array.make npins infinity;
    g_net_delay = Array.make npins 0.0;
    g_i2 = Array.make npins 0.0;
    g_root_load = Array.make nnets 0.0;
    wns_smooth_ = 0.0;
    slices = [||];
    hint_nodes = !max_nodes;
    hint_pins = !max_pins }

let nets t = t.fwd.Sta.Forward.nets

let idx p tr = (2 * p) + Sta.transition_index tr
let at t p tr = t.fwd.Sta.Forward.at.(idx p tr)
let slew t p tr = t.fwd.Sta.Forward.slew.(idx p tr)
let endpoint_slack t p = t.ep_slack.(p)

let check_setup_lut_i (ck : Liberty.check_arc) ti =
  if ti = 0 then ck.Liberty.setup_rise else ck.Liberty.setup_fall

(* partial reduction over endpoints (merged in chunk order) *)
type ep_stats = {
  mutable es_count : int;
  mutable es_wns : float;
  mutable es_tns : float;
  mutable es_smooth_tns : float;
  mutable es_max_neg : float;  (* running max of -slack for the WNS LSE *)
  es_q : float array;  (* a setup-table query's value and partials *)
}

type fsum = { mutable fs : float }

let forward_run ?pool ?(obs = Obs.disabled) t =
  let g = t.graph in
  let cs = g.Sta.Graph.constraints in
  let gamma = t.gamma_ in
  let pool = match pool with Some p -> p | None -> Parallel.sequential_pool in
  let at = t.fwd.Sta.Forward.at and slew = t.fwd.Sta.Forward.slew in
  Sta.Forward.reset t.fwd;
  Sta.Forward.sweep ~pool ~obs t.fwd (Sta.Forward.pin t.fwd ~gamma);
  (* endpoint slacks (setup/late), smoothed across transitions; global
     statistics reduced with per-chunk partial accumulators *)
  let period = cs.Sta.Constraints.clock_period in
  let endpoints = g.Sta.Graph.endpoints in
  let nep = Array.length endpoints in
  let eval_endpoint acc k =
    let p = endpoints.(k) in
    let sum_exp = ref 0.0 and max_neg = ref neg_infinity in
    let hard = ref infinity in
    for ti = 0 to 1 do
      let i = (2 * p) + ti in
      t.ep_slack_tr.(i) <- infinity;
      t.ep_dsetup.(i) <- 0.0;
      if at.(i) > neg_infinity then begin
        let slack =
          match g.Sta.Graph.check_of_pin.(p) with
          | Some ck ->
            Liberty.Lut.eval
              (check_setup_lut_i ck.Sta.Graph.ck_arc ti)
              slew.(i) cs.Sta.Constraints.clock_slew acc.es_q 0;
            t.ep_dsetup.(i) <- acc.es_q.(1);
            period -. acc.es_q.(0) -. at.(i)
          | None -> period -. cs.Sta.Constraints.output_delay -. at.(i)
        in
        t.ep_slack_tr.(i) <- slack;
        if slack < !hard then hard := slack;
        if -.slack > !max_neg then max_neg := -.slack
      end
    done;
    if !hard < infinity then begin
      (* smoothed min over transitions: -LSE(-slacks) *)
      for ti = 0 to 1 do
        let i = (2 * p) + ti in
        if t.ep_slack_tr.(i) < infinity then
          sum_exp :=
            !sum_exp +. exp ((-.t.ep_slack_tr.(i) -. !max_neg) /. gamma)
      done;
      let s = -.(!max_neg +. (gamma *. log !sum_exp)) in
      t.ep_slack.(p) <- s;
      acc.es_count <- acc.es_count + 1;
      acc.es_smooth_tns <- acc.es_smooth_tns +. softmin0 ~gamma s;
      if -.s > acc.es_max_neg then acc.es_max_neg <- -.s;
      if !hard < acc.es_wns then acc.es_wns <- !hard;
      if !hard < 0.0 then acc.es_tns <- acc.es_tns +. !hard
    end
    else t.ep_slack.(p) <- infinity
  in
  let stats =
    Parallel.parallel_for_reduce pool ~obs ~cost:8.0 nep
      ~init:(fun _ ->
        { es_count = 0; es_wns = infinity; es_tns = 0.0;
          es_smooth_tns = 0.0; es_max_neg = neg_infinity;
          es_q = Array.create_float 3 })
      ~body:eval_endpoint
      ~merge:(fun a b ->
        a.es_count <- a.es_count + b.es_count;
        if b.es_wns < a.es_wns then a.es_wns <- b.es_wns;
        a.es_tns <- a.es_tns +. b.es_tns;
        a.es_smooth_tns <- a.es_smooth_tns +. b.es_smooth_tns;
        if b.es_max_neg > a.es_max_neg then a.es_max_neg <- b.es_max_neg;
        a)
  in
  (* smoothed WNS: second streaming pass of the shifted LSE over the
     stored per-endpoint slacks (no intermediate list) *)
  let wns_smooth =
    if stats.es_count = 0 then 0.0
    else begin
      let max_neg = stats.es_max_neg in
      let sum =
        Parallel.parallel_for_reduce pool ~obs ~cost:2.0 nep
          ~init:(fun _ -> { fs = 0.0 })
          ~body:(fun acc k ->
            let s = t.ep_slack.(endpoints.(k)) in
            if s < infinity then
              acc.fs <- acc.fs +. exp ((-.s -. max_neg) /. gamma))
          ~merge:(fun a b ->
            a.fs <- a.fs +. b.fs;
            a)
      in
      -.(max_neg +. (gamma *. log sum.fs))
    end
  in
  t.wns_smooth_ <- wns_smooth;
  { wns = (if stats.es_count = 0 then 0.0 else stats.es_wns);
    tns = stats.es_tns;
    wns_smooth;
    tns_smooth = stats.es_smooth_tns;
    endpoint_count = stats.es_count }

(* backward kernel for one pin: gathers from fan-out state, so this task
   is the only writer of the pin's adjoints (and, when the pin drives a
   net, of that net's sink adjoints and root-load adjoint) — the reverse
   level sweep is race-free under data-parallel dispatch. *)
let backward_pin t u =
  let g = t.graph in
  let gamma = t.gamma_ in
  let { Sta.Forward.nets; at; slew; tape_d; tape_dd_ds; tape_dd_dl; tape_s;
        tape_ds_ds; tape_ds_dl; _ } =
    t.fwd
  in
  (* cell arcs: gather the fan-out contributions of this pin *)
  let lo = g.Sta.Graph.fanout_off.(u) in
  let hi = g.Sta.Graph.fanout_off.(u + 1) in
  for k = lo to hi - 1 do
    let a = g.Sta.Graph.fanout_arc.(k) in
    let v = g.Sta.Graph.arc_to.(a) in
    let mask = g.Sta.Graph.arc_mask.(a) in
    for oi = 0 to 1 do
      let iv = (2 * v) + oi in
      if at.(iv) > neg_infinity
         && (t.g_at.(iv) <> 0.0 || t.g_slew.(iv) <> 0.0)
      then begin
        let sub = (mask lsr (2 * oi)) land 3 in
        for ii = 0 to 1 do
          if sub land (1 lsl ii) <> 0 then begin
            let iu = (2 * u) + ii in
            if at.(iu) > neg_infinity then begin
              let e = (4 * a) + (2 * oi) + ii in
              let wa =
                exp ((at.(iu) +. tape_d.(e) -. at.(iv)) /. gamma)
              in
              let ws = exp ((tape_s.(e) -. slew.(iv)) /. gamma) in
              let g_contrib_at = wa *. t.g_at.(iv) in
              let g_contrib_slew = ws *. t.g_slew.(iv) in
              t.g_at.(iu) <- t.g_at.(iu) +. g_contrib_at;
              t.g_slew.(iu) <-
                t.g_slew.(iu)
                +. (tape_dd_ds.(e) *. g_contrib_at)
                +. (tape_ds_ds.(e) *. g_contrib_slew)
            end
          end
        done
      end
    done
  done;
  let design = g.Sta.Graph.design in
  let pin = design.Netlist.pins.(u) in
  let net = pin.Netlist.net in
  (* net arcs: the driver gathers from its sinks and owns the per-sink
     net-delay/impulse adjoints (each sink has exactly one driver) *)
  (if net >= 0 && pin.Netlist.direction = Netlist.Output
      && g.Sta.Graph.net_driver_of.(net) = u
      && nets.Sta.Nets.trees.(net) <> None
   then
     for k = g.Sta.Graph.net_sink_off.(net)
         to g.Sta.Graph.net_sink_off.(net + 1) - 1
     do
       let v = g.Sta.Graph.net_sink.(k) in
       for ti = 0 to 1 do
         let iv = (2 * v) + ti and iu = (2 * u) + ti in
         if at.(iv) > neg_infinity then begin
           t.g_at.(iu) <- t.g_at.(iu) +. t.g_at.(iv);
           t.g_net_delay.(v) <- t.g_net_delay.(v) +. t.g_at.(iv);
           let slew_v = Float.max 1e-9 slew.(iv) in
           t.g_slew.(iu) <-
             t.g_slew.(iu) +. (slew.(iu) /. slew_v *. t.g_slew.(iv));
           t.g_i2.(v) <- t.g_i2.(v) +. (t.g_slew.(iv) /. (2.0 *. slew_v))
         end
       done
     done);
  (* root-load adjoint: this pin's fan-in LUT queries took the load of
     the net it drives as an argument; its own adjoints are final now
     (gathered above), so fold the taped load partials.  Only the
     driver's task writes its net's slot. *)
  let lo = g.Sta.Graph.fanin_off.(u) in
  let hi = g.Sta.Graph.fanin_off.(u + 1) in
  if hi > lo && net >= 0 then
    for oi = 0 to 1 do
      let iu_out = (2 * u) + oi in
      if at.(iu_out) > neg_infinity
         && (t.g_at.(iu_out) <> 0.0 || t.g_slew.(iu_out) <> 0.0)
      then begin
        let at_u = at.(iu_out) and slew_u = slew.(iu_out) in
        let acc = ref 0.0 in
        for k = lo to hi - 1 do
          let a = g.Sta.Graph.fanin_arc.(k) in
          let w = g.Sta.Graph.arc_from.(a) in
          let sub = (g.Sta.Graph.arc_mask.(a) lsr (2 * oi)) land 3 in
          for ii = 0 to 1 do
            if sub land (1 lsl ii) <> 0 then begin
              let iw = (2 * w) + ii in
              if at.(iw) > neg_infinity then begin
                let e = (4 * a) + (2 * oi) + ii in
                let wa =
                  exp ((at.(iw) +. tape_d.(e) -. at_u) /. gamma)
                in
                let ws = exp ((tape_s.(e) -. slew_u) /. gamma) in
                acc :=
                  !acc
                  +. (tape_dd_dl.(e) *. wa *. t.g_at.(iu_out))
                  +. (tape_ds_dl.(e) *. ws *. t.g_slew.(iu_out))
              end
            end
          done
        done;
        t.g_root_load.(net) <- t.g_root_load.(net) +. !acc
      end
    done

(* Elmore adjoint, Steiner provenance and cell gradients for one net,
   accumulated into [gx]/[gy] (per cell) using [ns] as scratch. *)
let net_backward t ns ~gx ~gy net =
  let nets = nets t in
  match nets.Sta.Nets.trees.(net) with
  | None -> ()
  | Some (tree, rc) ->
    let design = t.graph.Sta.Graph.design in
    let pins = design.Netlist.nets.(net).Netlist.net_pins in
    let nnodes = Steiner.node_count tree in
    let npins_net = tree.Steiner.pin_count in
    ensure_net_scratch ns nnodes npins_net;
    Array.fill ns.ns_node_gd 0 nnodes 0.0;
    Array.fill ns.ns_node_gi2 0 nnodes 0.0;
    Array.fill ns.ns_node_gx 0 nnodes 0.0;
    Array.fill ns.ns_node_gy 0 nnodes 0.0;
    let any = ref (t.g_root_load.(net) <> 0.0) in
    Array.iter
      (fun p ->
        let node = nets.Sta.Nets.tree_index.(p) in
        if t.g_net_delay.(p) <> 0.0 || t.g_i2.(p) <> 0.0 then begin
          ns.ns_node_gd.(node) <- t.g_net_delay.(p);
          ns.ns_node_gi2.(node) <- t.g_i2.(p);
          any := true
        end)
      pins;
    if !any then begin
      Rc.backward ~scratch:ns.ns_rc rc ~g_delay:ns.ns_node_gd
        ~g_impulse2:ns.ns_node_gi2 ~g_root_load:t.g_root_load.(net)
        ~node_gx:ns.ns_node_gx ~node_gy:ns.ns_node_gy;
      Array.fill ns.ns_pin_gx 0 npins_net 0.0;
      Array.fill ns.ns_pin_gy 0 npins_net 0.0;
      Steiner.accumulate_pin_gradient tree ~node_gx:ns.ns_node_gx
        ~node_gy:ns.ns_node_gy ~pin_gx:ns.ns_pin_gx ~pin_gy:ns.ns_pin_gy;
      Array.iteri
        (fun k p ->
          let cell = design.Netlist.pins.(p).Netlist.cell in
          gx.(cell) <- gx.(cell) +. ns.ns_pin_gx.(k);
          gy.(cell) <- gy.(cell) +. ns.ns_pin_gy.(k))
        pins
    end

let backward_run ?pool ?(obs = Obs.disabled) t ~w_tns ~w_wns ~grad_x ~grad_y =
  let g = t.graph in
  let design = g.Sta.Graph.design in
  let gamma = t.gamma_ in
  let npins = Netlist.num_pins design in
  let nnets = Netlist.num_nets design in
  let ncells = Netlist.num_cells design in
  if Array.length grad_x <> ncells || Array.length grad_y <> ncells then
    invalid_arg "Difftimer.backward: gradient size mismatch";
  let pool = match pool with Some p -> p | None -> Parallel.sequential_pool in
  Array.fill t.g_at 0 (2 * npins) 0.0;
  Array.fill t.g_slew 0 (2 * npins) 0.0;
  Array.fill t.g_net_delay 0 npins 0.0;
  Array.fill t.g_i2 0 npins 0.0;
  Array.fill t.g_root_load 0 nnets 0.0;
  (* seeds: d(objective)/d(endpoint slack), then through the
     per-transition smoothed min *)
  Array.iter
    (fun p ->
      let s = t.ep_slack.(p) in
      if s < infinity then begin
        let g_s =
          (w_tns *. -.softmin0_grad ~gamma s)
          +. (w_wns *. -.exp ((t.wns_smooth_ -. s) /. gamma))
        in
        for ti = 0 to 1 do
          let i = (2 * p) + ti in
          if t.ep_slack_tr.(i) < infinity then begin
            let w_tr = exp ((s -. t.ep_slack_tr.(i)) /. gamma) in
            let g_tr = w_tr *. g_s in
            (* slack = period - setup(slew) - at *)
            t.g_at.(i) <- t.g_at.(i) -. g_tr;
            t.g_slew.(i) <- t.g_slew.(i) -. (t.ep_dsetup.(i) *. g_tr)
          end
        done
      end)
    g.Sta.Graph.endpoints;
  (* reverse level sweep: each pin gathers from its fan-out, so pins of
     one level are independent and run through the worker pool *)
  let levels = g.Sta.Graph.levels in
  for l = Array.length levels - 1 downto 0 do
    let level_pins = levels.(l) in
    Parallel.parallel_for pool ~obs ~cost:16.0 (Array.length level_pins)
      (fun k -> backward_pin t level_pins.(k))
  done;
  (* per-net Elmore adjoint: contiguous net slices over the workers, one
     scratch (and one per-cell partial gradient) per slice, merged in
     slice order for determinism *)
  (* slice count is a pure function of the net count — never of the pool
     — so the slice partials and their in-order merge give bit-identical
     gradients at every domain count *)
  let nslices = if nnets = 0 then 1 else min 16 ((nnets + 255) / 256) in
  if nslices <= 1 then begin
    ensure_slices t 1;
    let ns = t.slices.(0) in
    for net = 0 to nnets - 1 do
      net_backward t ns ~gx:grad_x ~gy:grad_y net
    done
  end
  else begin
    ensure_slices t nslices;
    (* one slice covers >=256 nets of Elmore adjoint work *)
    Parallel.parallel_for pool ~obs ~cost:512.0 nslices (fun s ->
      let ns = t.slices.(s) in
      Array.fill ns.ns_gx 0 ncells 0.0;
      Array.fill ns.ns_gy 0 ncells 0.0;
      let lo = s * nnets / nslices and hi = (s + 1) * nnets / nslices in
      for net = lo to hi - 1 do
        net_backward t ns ~gx:ns.ns_gx ~gy:ns.ns_gy net
      done);
    for s = 0 to nslices - 1 do
      let ns = t.slices.(s) in
      for c = 0 to ncells - 1 do
        grad_x.(c) <- grad_x.(c) +. ns.ns_gx.(c);
        grad_y.(c) <- grad_y.(c) +. ns.ns_gy.(c)
      done
    done
  end

let k_forward = Obs.kernel "difftimer.fwd"
let k_backward = Obs.kernel "difftimer.bwd"

let forward ?pool ?(obs = Obs.disabled) t =
  Obs.start obs k_forward;
  let m = forward_run ?pool ~obs t in
  Obs.stop obs;
  m

let backward ?pool ?(obs = Obs.disabled) t ~w_tns ~w_wns ~grad_x ~grad_y =
  Obs.start obs k_backward;
  backward_run ?pool ~obs t ~w_tns ~w_wns ~grad_x ~grad_y;
  Obs.stop obs
