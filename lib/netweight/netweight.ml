type criticality = Net_slack | Top_paths of int

type config = {
  criticality : criticality;
  alpha : float;
  beta : float;
  max_weight : float;
  decay : float;
  period : int;
}

let default_config =
  { criticality = Net_slack; alpha = 0.12; beta = 0.5; max_weight = 16.0;
    decay = 1.0; period = 3 }

let path_config =
  { criticality = Top_paths 32; alpha = 0.15; beta = 0.5; max_weight = 16.0;
    decay = 0.85; period = 3 }

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

let timer t = t.timer_
let should_update t iter = iter mod max 1 t.cfg.period = 0

(* Per-net criticality in [0, 1] of the timer's current analysis. *)
let criticality ?pool ~obs t (report : Sta.Timer.report) =
  match t.cfg.criticality with
  | Net_slack ->
    let wns = report.Sta.Timer.setup_wns in
    let denom = Float.max 1.0 (Float.abs (Float.min wns 0.0)) in
    (* every net's slack is read: one backward pass *)
    Sta.Timer.pull_all_rats t.timer_;
    fun n ->
      let slack = Sta.Timer.net_slack t.timer_ n in
      if slack >= 0.0 || slack = neg_infinity || slack = infinity then 0.0
      else Float.min 1.0 (-.slack /. denom)
  | Top_paths k ->
    let view = Paths.analyze ~obs t.timer_ in
    (* only violating paths drive weights: slack_limit 0 prunes exactly *)
    let paths = Paths.enumerate ?pool ~obs ~slack_limit:0.0 ~k view in
    let crit = Paths.net_criticality view paths in
    let maxc = Array.fold_left Float.max 0.0 crit in
    fun n -> if maxc > 0.0 then crit.(n) /. maxc else 0.0

let k_update = Obs.kernel "netweight.update"

let update ?pool ?(obs = Obs.disabled) t =
  Obs.start obs k_update;
  let report = Sta.Timer.run ?pool ~obs t.timer_ in
  let crit = criticality ?pool ~obs t report in
  let c = t.cfg in
  Array.iter
    (fun (net : Netlist.net) ->
      let n = net.Netlist.net_id in
      t.momentum.(n) <- (c.beta *. t.momentum.(n)) +. ((1.0 -. c.beta) *. crit n);
      let m = t.momentum.(n) in
      (* relax the excess over 1 as momentum fades (decay = 1 keeps it
         exactly: the ratchet of [24]), then escalate by the momentum *)
      let keep = c.decay +. ((1.0 -. c.decay) *. Float.min 1.0 m) in
      let w = 1.0 +. ((net.Netlist.weight -. 1.0) *. keep) in
      let w = if m > 0.0 then w *. (1.0 +. (c.alpha *. m)) else w in
      net.Netlist.weight <- Float.min c.max_weight w)
    t.design.Netlist.nets;
  Obs.stop obs;
  report
