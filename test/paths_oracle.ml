(* Test-only oracle: the original eager top-K path enumeration, the
   bit-identity reference for the lazy [Paths] engine, and the
   back-pointer rule ([analyze]) the timer's forward kernel records.
   The enumeration reads a [Paths.t] view only through [Paths.pred] and
   the exact timer's public accessors, so it shares no code with the
   engine under test beyond the back-pointers themselves.

   A candidate path fixes a suffix of (in-edge, node) pairs and lets the
   prefix follow back-pointers from its head; its priority is the exact
   slack of the completed path.  Popping a candidate expands every
   deviation of its whole backbone and materialises the popped path. *)

let tr_of ti = if ti = 0 then Sta.Rise else Sta.Fall
let no_edge = -1
let net_edge = -2

let graph timer = (Sta.Timer.nets timer).Sta.Nets.graph
let at timer node = Sta.Timer.at_late timer (node / 2) (tr_of (node land 1))
let net_of timer node =
  (graph timer).Sta.Graph.design.Netlist.pins.(node / 2).Netlist.net

(* source node and delay of in-edge [e] of [node]: a cell arc's tape
   slot [4 * a + 2 * tr_out + tr_in], or [net_edge] *)
let src_of timer node e =
  let g = graph timer in
  if e = net_edge then
    (2 * g.Sta.Graph.net_driver_of.(net_of timer node)) + (node land 1)
  else (2 * g.Sta.Graph.arc_from.(e / 4)) + (e land 1)

let delay_of timer node e =
  if e = net_edge then
    let nets = Sta.Timer.nets timer in
    match nets.Sta.Nets.trees.(net_of timer node) with
    | Some (_, rc) -> Rc.sink_delay rc nets.Sta.Nets.tree_index.(node / 2)
    | None -> Float.nan
  else
    Sta.Timer.arc_delay timer (e / 4) ~tr_out:(tr_of ((e lsr 1) land 1))
      ~tr_in:(tr_of (e land 1))

(* [f e src delay] over the in-edges of [node] in the timer's retrace
   order: the net arc first, then every admitted (cell arc, input
   transition) pair whose source is reachable. *)
let iter_in timer node f =
  let g = graph timer in
  let v = node / 2 and oi = node land 1 in
  let pin = g.Sta.Graph.design.Netlist.pins.(v) in
  let net = pin.Netlist.net in
  if
    pin.Netlist.direction = Netlist.Input
    && net >= 0
    && (Sta.Timer.nets timer).Sta.Nets.trees.(net) <> None
  then begin
    let u = g.Sta.Graph.net_driver_of.(net) in
    if u >= 0 && u <> v && at timer ((2 * u) + oi) > neg_infinity then
      f net_edge ((2 * u) + oi) (delay_of timer node net_edge)
  end;
  for k = g.Sta.Graph.fanin_off.(v) to g.Sta.Graph.fanin_off.(v + 1) - 1 do
    let a = g.Sta.Graph.fanin_arc.(k) in
    let u = g.Sta.Graph.arc_from.(a) in
    let sub = (g.Sta.Graph.arc_mask.(a) lsr (2 * oi)) land 3 in
    for ii = 0 to 1 do
      if sub land (1 lsl ii) <> 0 && at timer ((2 * u) + ii) > neg_infinity
      then
        let e = (4 * a) + (2 * oi) + ii in
        f e ((2 * u) + ii) (delay_of timer node e)
    done
  done

(* The back-pointers as a retrace picks them, the rule the forward
   kernel's must reproduce: per node, the net edge wins outright when
   present; otherwise the cell contribution minimising
   |at(u) + d - at(v)| wins, first strict minimum in (arc, transition)
   order.  One walk over every node's in-edges. *)
let analyze timer =
  let nnodes = 2 * Netlist.num_pins (graph timer).Sta.Graph.design in
  Array.init nnodes (fun node ->
      let av = at timer node in
      let best = ref no_edge and best_err = ref infinity in
      iter_in timer node (fun e u d ->
          if e = net_edge then begin
            best := e;
            best_err := neg_infinity
          end
          else
            let err = Float.abs (at timer u +. d -. av) in
            if err < !best_err then begin
              best_err := err;
              best := e
            end);
      !best)

let materialize timer view ep rank ~head ~suffix ~slack =
  let rec walk acc node =
    let e = Paths.pred view node in
    if e = no_edge then (no_edge, node) :: acc
    else walk ((e, node) :: acc) (src_of timer node e)
  in
  let seq = walk suffix head in
  { Paths.pt_endpoint = ep; pt_rank = rank; pt_slack = slack;
    pt_steps =
      List.map
        (fun (_, node) ->
          let pin = node / 2 and tr = tr_of (node land 1) in
          { Sta.Timer.ps_pin = pin; ps_transition = tr;
            ps_at = Sta.Timer.at_late timer pin tr;
            ps_slew = Sta.Timer.slew_late timer pin tr })
        seq;
    pt_nets =
      List.filter_map
        (fun (e, node) ->
          if e = net_edge then Some (net_of timer node) else None)
        seq;
    pt_arcs =
      List.filter_map (fun (e, _) -> if e >= 0 then Some (e / 4) else None) seq
  }

(* [c_dsuf] is the accumulated delay from [c_head] to the endpoint,
   [c_rat] the endpoint's required time, so
   [c_slack = c_rat - (at(c_head) + c_dsuf)].  [c_seq] is the insertion
   sequence number, the deterministic tie-break (it also makes Rise win
   slack ties at the endpoint). *)
type cand = {
  c_head : int;
  c_dsuf : float;
  c_rat : float;
  c_slack : float;
  c_seq : int;
  c_suffix : (int * int) list;
}

(* (slack, seq) is a total order, so the set pops candidates in the
   order a binary heap under the same comparison would *)
module Pq = Set.Make (struct
  type t = cand

  let compare x y =
    let c = Float.compare x.c_slack y.c_slack in
    if c <> 0 then c else Int.compare x.c_seq y.c_seq
end)

let enumerate_endpoint ?(slack_limit = infinity) ~k timer view ep =
  if k <= 0 then []
  else begin
    let heap = ref Pq.empty in
    let seq = ref 0 in
    let push c =
      heap := Pq.add c !heap;
      incr seq
    in
    for ti = 0 to 1 do
      let a = Sta.Timer.at_late timer ep (tr_of ti) in
      let r = Sta.Timer.rat_late timer ep (tr_of ti) in
      let slack = r -. a in
      if a > neg_infinity && r < infinity && slack < slack_limit then
        push
          { c_head = (2 * ep) + ti; c_dsuf = 0.0; c_rat = r; c_slack = slack;
            c_seq = !seq; c_suffix = [] }
    done;
    (* Expand a popped candidate: walk its backbone (head, then
       back-pointers) and branch on every non-back-pointer in-edge.  A
       child's true slack is >= its parent's in exact arithmetic; the
       Float.max clamp removes the ulp-level noise the re-associated
       delay sums can introduce, so popped slacks are monotone. *)
    let expand c =
      let rec go node seg dseg =
        let p = Paths.pred view node in
        iter_in timer node (fun e w d ->
            if e <> p then begin
              let dsuf = d +. dseg +. c.c_dsuf in
              let slack =
                Float.max c.c_slack (c.c_rat -. (at timer w +. dsuf))
              in
              if slack < slack_limit then
                push
                  { c_head = w; c_dsuf = dsuf; c_rat = c.c_rat;
                    c_slack = slack; c_seq = !seq;
                    c_suffix = (e, node) :: seg }
            end);
        if p <> no_edge then
          go (src_of timer node p) ((p, node) :: seg)
            (dseg +. delay_of timer node p)
      in
      go c.c_head c.c_suffix 0.0
    in
    let rec pop acc rank =
      if rank >= k then List.rev acc
      else
        match Pq.min_elt_opt !heap with
        | None -> List.rev acc
        | Some c ->
          heap := Pq.remove c !heap;
          let path =
            materialize timer view ep rank ~head:c.c_head ~suffix:c.c_suffix
              ~slack:c.c_slack
          in
          if rank + 1 < k then expand c;
          pop (path :: acc) (rank + 1)
    in
    pop [] 0
  end

(* The global top K: every endpoint's top K (under [pool], merged in
   chunk order), ranked by (slack, endpoint position, rank). *)
let enumerate ?pool ?slack_limit ~k timer view =
  if k <= 0 then []
  else begin
    let eps = (graph timer).Sta.Graph.endpoints in
    let p = match pool with Some p -> p | None -> Parallel.sequential_pool in
    let acc =
      Parallel.parallel_for_reduce p ~cost:2000.0 (Array.length eps)
        ~init:(fun _ -> ref [])
        ~body:(fun acc i ->
          List.iter
            (fun pt -> acc := (i, pt) :: !acc)
            (enumerate_endpoint ?slack_limit ~k timer view eps.(i)))
        ~merge:(fun a b ->
          a := List.rev_append !b !a;
          a)
    in
    let compare_tagged (ia, (a : Paths.path)) (ib, (b : Paths.path)) =
      let c = Float.compare a.Paths.pt_slack b.Paths.pt_slack in
      if c <> 0 then c
      else
        let c = Int.compare ia ib in
        if c <> 0 then c else Int.compare a.Paths.pt_rank b.Paths.pt_rank
    in
    List.filteri (fun i _ -> i < k) (List.sort compare_tagged !acc)
    |> List.map snd
  end
