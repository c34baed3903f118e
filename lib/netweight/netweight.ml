type config = {
  alpha : float;
  beta : float;
  max_weight : float;
  period : int;
  rebuild_trees : bool;
}

let default_config =
  { alpha = 0.12; beta = 0.5; max_weight = 16.0; period = 3;
    rebuild_trees = true }

type t = {
  cfg : config;
  timer_ : Sta.Timer.t;
  design : Netlist.t;
  momentum : float array;  (* per net smoothed criticality *)
}

let create ?(config = default_config) graph =
  { cfg = config;
    timer_ = Sta.Timer.create graph;
    design = graph.Sta.Graph.design;
    momentum = Array.make (Netlist.num_nets graph.Sta.Graph.design) 0.0 }

let config t = t.cfg
let timer t = t.timer_
let should_update t iter = iter mod max 1 t.cfg.period = 0

let k_update = Obs.kernel "netweight.update"

let update ?pool ?(obs = Obs.disabled) t =
  Obs.start obs k_update;
  let report =
    Sta.Timer.run ~rebuild_trees:t.cfg.rebuild_trees ?pool ~obs t.timer_
  in
  let wns = report.Sta.Timer.setup_wns in
  let denom = Float.max 1.0 (Float.abs (Float.min wns 0.0)) in
  Array.iter
    (fun (net : Netlist.net) ->
      let slack = Sta.Timer.net_slack t.timer_ net.Netlist.net_id in
      let criticality =
        if slack >= 0.0 || slack = neg_infinity || slack = infinity then 0.0
        else Float.min 1.0 (-.slack /. denom)
      in
      let n = net.Netlist.net_id in
      t.momentum.(n) <-
        (t.cfg.beta *. t.momentum.(n)) +. ((1.0 -. t.cfg.beta) *. criticality);
      if t.momentum.(n) > 0.0 then
        net.Netlist.weight <-
          Float.min t.cfg.max_weight
            (net.Netlist.weight *. (1.0 +. (t.cfg.alpha *. t.momentum.(n)))))
    t.design.Netlist.nets;
  Obs.stop obs;
  report

let reset t =
  Netlist.reset_weights t.design;
  Array.fill t.momentum 0 (Array.length t.momentum) 0.0
