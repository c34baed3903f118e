(* Top-K worst-slack path enumeration over the exact timer.

   Timing nodes are (pin, transition) pairs at index
   [2 * pin + transition_index].  A node's in-edges are read in place
   from the timing graph's fan-in CSR, the net driver and the timer's
   arc-delay tape ([iter_in]); [analyze] copies the back-pointer per
   node that the timer's forward kernel recorded (the in-edge realising
   its arrival time), so the back-pointer walk from any node is its
   arrival-time retrace, the critical path into it.  Enumeration is per-endpoint
   deviation-based branch-and-bound: a candidate fixes a suffix of the
   path and lets the prefix follow back-pointers; its priority is the
   exact slack of the completed path (arrival times are exact max-prefix
   arrivals), so a min-heap pops paths in slack order and a slack limit
   prunes exactly.

   The production engine generates deviations *lazily*: a popped
   candidate pushes at most two successors (its first child — the best
   deviation off its own prefix spine — and its next sibling in the
   parent's slack-sorted deviation list) instead of every deviation of
   the whole backbone, and the global enumeration threads a tightening
   k-th-best slack bound through a worst-endpoint-first scan so healthy
   endpoints are pruned before their search starts.  Materialisation
   (step lists, at/slew lookups, net/arc lists) is deferred until after
   the global top-K cut.  The original eager implementation is the
   path tests' bit-identity oracle ([test/paths_oracle.ml]). *)

let tr_of ti = if ti = 0 then Sta.Rise else Sta.Fall

type t = {
  timer : Sta.Timer.t;
  graph : Sta.Graph.t;
  nets : Sta.Nets.t;
  (* per node: the in-edge realising its arrival, or [no_edge].  An
     in-edge of node [2 * v + tr_out] is a cell arc's tape slot
     [4 * a + 2 * tr_out + tr_in] or [net_edge], the net arc into [v]. *)
  pred : int array;
  (* Memoized worst-first endpoint prescan (per-endpoint rank-0 slack +
     the worst-first visit order).  A view is a frozen snapshot of one
     placement's timing, so the prescan is computed once per view and
     reused by every subsequent [enumerate] on it — which is what lets
     a serving daemon answer consecutive what-if [paths] queries on an
     unchanged topology without re-scanning every endpoint. *)
  mutable prescan : (float array * int array) option;
}

type path = {
  pt_endpoint : int;
  pt_rank : int;
  pt_slack : float;
  pt_steps : Sta.Timer.path_step list;
  pt_nets : int list;
  pt_arcs : int list;
}

let no_edge = -1
let net_edge = -2
let pred t n = t.pred.(n)
let at t node = Sta.Timer.at_late t.timer (node / 2) (tr_of (node land 1))
let net_of t node =
  t.graph.Sta.Graph.design.Netlist.pins.(node / 2).Netlist.net

(* source node and delay of in-edge [e] of [node] *)
let src_of t node e =
  if e = net_edge then
    (2 * t.graph.Sta.Graph.net_driver_of.(net_of t node)) + (node land 1)
  else (2 * t.graph.Sta.Graph.arc_from.(e / 4)) + (e land 1)

let delay_of t node e =
  if e = net_edge then
    match t.nets.Sta.Nets.trees.(net_of t node) with
    | Some (_, rc) -> Rc.sink_delay rc t.nets.Sta.Nets.tree_index.(node / 2)
    | None -> Float.nan
  else
    Sta.Timer.arc_delay t.timer (e / 4) ~tr_out:(tr_of ((e lsr 1) land 1))
      ~tr_in:(tr_of (e land 1))

(* [f e src delay] over the in-edges of [node] in the timer's retrace
   order: the net arc first, then every admitted (cell arc, input
   transition) pair whose source is reachable. *)
let iter_in t node f =
  let g = t.graph in
  let v = node / 2 and oi = node land 1 in
  let pin = g.Sta.Graph.design.Netlist.pins.(v) in
  let net = pin.Netlist.net in
  if
    pin.Netlist.direction = Netlist.Input
    && net >= 0
    && t.nets.Sta.Nets.trees.(net) <> None
  then begin
    let u = g.Sta.Graph.net_driver_of.(net) in
    if u >= 0 && u <> v && at t ((2 * u) + oi) > neg_infinity then
      f net_edge ((2 * u) + oi) (delay_of t node net_edge)
  end;
  for k = g.Sta.Graph.fanin_off.(v) to g.Sta.Graph.fanin_off.(v + 1) - 1 do
    let a = g.Sta.Graph.fanin_arc.(k) in
    let u = g.Sta.Graph.arc_from.(a) in
    let sub = (g.Sta.Graph.arc_mask.(a) lsr (2 * oi)) land 3 in
    for ii = 0 to 1 do
      if sub land (1 lsl ii) <> 0 && at t ((2 * u) + ii) > neg_infinity then
        let e = (4 * a) + (2 * oi) + ii in
        f e ((2 * u) + ii) (delay_of t node e)
    done
  done

(* binary heap under [E.less]: the candidate queue and the k-th-best bound *)
module MakeHeap (E : sig
  type elt

  val dummy : elt
  val less : elt -> elt -> bool
end) =
struct
  type t = { mutable a : E.elt array; mutable n : int }

  let create () = { a = Array.make 64 E.dummy; n = 0 }

  let push h c =
    if h.n = Array.length h.a then begin
      let a' = Array.make (2 * h.n) E.dummy in
      Array.blit h.a 0 a' 0 h.n;
      h.a <- a'
    end;
    let i = ref h.n in
    h.n <- h.n + 1;
    h.a.(!i) <- c;
    while !i > 0 && E.less h.a.(!i) h.a.((!i - 1) / 2) do
      let p = (!i - 1) / 2 in
      let tmp = h.a.(p) in
      h.a.(p) <- h.a.(!i);
      h.a.(!i) <- tmp;
      i := p
    done

  let pop h =
    if h.n = 0 then None
    else begin
      let top = h.a.(0) in
      h.n <- h.n - 1;
      h.a.(0) <- h.a.(h.n);
      h.a.(h.n) <- E.dummy;
      let i = ref 0 in
      let continue_ = ref true in
      while !continue_ do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let m = ref !i in
        if l < h.n && E.less h.a.(l) h.a.(!m) then m := l;
        if r < h.n && E.less h.a.(r) h.a.(!m) then m := r;
        if !m = !i then continue_ := false
        else begin
          let tmp = h.a.(!m) in
          h.a.(!m) <- h.a.(!i);
          h.a.(!i) <- tmp;
          i := !m
        end
      done;
      Some top
    end
end

let materialize t ep rank ~head ~suffix ~slack =
  let tm = t.timer in
  let rec walk acc node =
    let e = t.pred.(node) in
    if e = no_edge then (no_edge, node) :: acc
    else walk ((e, node) :: acc) (src_of t node e)
  in
  let seq = walk suffix head in
  let steps =
    List.map
      (fun (_, node) ->
        let pin = node / 2 and tr = tr_of (node land 1) in
        { Sta.Timer.ps_pin = pin; ps_transition = tr;
          ps_at = Sta.Timer.at_late tm pin tr;
          ps_slew = Sta.Timer.slew_late tm pin tr })
      seq
  in
  let nets =
    List.filter_map
      (fun (e, node) -> if e = net_edge then Some (net_of t node) else None)
      seq
  in
  let arcs =
    List.filter_map (fun (e, _) -> if e >= 0 then Some (e / 4) else None) seq
  in
  { pt_endpoint = ep; pt_rank = rank; pt_slack = slack; pt_steps = steps;
    pt_nets = nets; pt_arcs = arcs }

let k_analyze = Obs.kernel "paths.analyze"

let analyze ?(obs = Obs.disabled) timer =
  Obs.start obs k_analyze;
  let nets = Sta.Timer.nets timer in
  let graph = nets.Sta.Nets.graph in
  (* enumeration reads endpoint RATs from pool tasks: every one is
     pulled here, so the tasks only read *)
  Array.iter
    (fun ep -> ignore (Sta.Timer.rat_late timer ep Sta.Rise))
    graph.Sta.Graph.endpoints;
  let view =
    { timer; graph; nets; pred = Sta.Timer.arrival_edges timer;
      prescan = None }
  in
  Obs.stop obs;
  view

(* ---- lazy deviation search ---- *)

(* One deviation off a candidate's prefix spine: taking in-edge
   [dv_edge] at spine node [dv_node] yields a child whose suffix is
   [(dv_edge, dv_node) :: dv_seg] and whose exact completed-path slack
   is [dv_slack].  Roots (the two endpoint transitions) are encoded with
   [dv_edge = -1] and the endpoint node in [dv_node].  [dv_rat] is the
   required time inherited down the deviation chain. *)
type dev = {
  dv_slack : float;
  dv_dsuf : float;
  dv_rat : float;
  dv_edge : int;
  dv_node : int;
  dv_seg : (int * int) list;
}

(* A live candidate.  [l_sibs] is its parent's slack-sorted deviation
   array and [l_sib_pos] its own position there: popping the candidate
   releases its next sibling (one O(1) push) and its own first child,
   instead of every deviation of the whole backbone.  [l_parent_pop] is
   the pop index of the parent (-1 for roots); (slack, parent pop,
   sibling position) is a total order that reproduces the eager
   implementation's (slack, insertion seq) pop order bit for bit: among
   equal slacks, children of earlier-popped parents were pushed first,
   and within one parent the slack-stable sort preserves the canonical
   (spine, edge) push order. *)
type lcand = {
  l_head : int;
  l_dsuf : float;
  l_rat : float;
  l_slack : float;
  l_suffix : (int * int) list;
  l_parent_pop : int;
  l_sibs : dev array;
  l_sib_pos : int;
}

module Lq = MakeHeap (struct
  type elt = lcand

  let dummy =
    { l_head = -1; l_dsuf = 0.0; l_rat = 0.0; l_slack = 0.0; l_suffix = [];
      l_parent_pop = -1; l_sibs = [||]; l_sib_pos = 0 }

  let less x y =
    let c = Float.compare x.l_slack y.l_slack in
    if c <> 0 then c < 0
    else
      let c = Int.compare x.l_parent_pop y.l_parent_pop in
      if c <> 0 then c < 0 else Int.compare x.l_sib_pos y.l_sib_pos < 0
end)

(* candidate generation / pruning tallies, accumulated per reduce chunk
   and published as paths.* Obs counters after the merge *)
type counts = {
  mutable ct_pushed : int;
  mutable ct_popped : int;
  mutable ct_pruned : int;
  mutable ct_skipped : int;  (* endpoints skipped by the global bound *)
}

let fresh_counts () =
  { ct_pushed = 0; ct_popped = 0; ct_pruned = 0; ct_skipped = 0 }

let dev_compare a b = Float.compare a.dv_slack b.dv_slack

let cand_of_dev t ~parent_pop sibs pos =
  let d = sibs.(pos) in
  if d.dv_edge = no_edge then
    { l_head = d.dv_node; l_dsuf = 0.0; l_rat = d.dv_rat; l_slack = d.dv_slack;
      l_suffix = []; l_parent_pop = parent_pop; l_sibs = sibs;
      l_sib_pos = pos }
  else
    { l_head = src_of t d.dv_node d.dv_edge; l_dsuf = d.dv_dsuf;
      l_rat = d.dv_rat; l_slack = d.dv_slack;
      l_suffix = (d.dv_edge, d.dv_node) :: d.dv_seg; l_parent_pop = parent_pop; l_sibs = sibs; l_sib_pos = pos }

(* All deviations off [c]'s prefix spine, slacks computed exactly as the
   eager expand does (same walk, same association of the delay sums),
   filtered against the limit and stable-sorted by slack so the sibling
   chain is monotone in heap priority while slack ties keep the
   canonical (spine, edge) order. *)
let deviations t ~limit ~counts c =
  let out = ref [] in
  let rec go node seg dseg =
    let p = t.pred.(node) in
    iter_in t node (fun e w d ->
        if e <> p then begin
          let dsuf = d +. dseg +. c.l_dsuf in
          let slack = Float.max c.l_slack (c.l_rat -. (at t w +. dsuf)) in
          if slack < limit then
            out :=
              { dv_slack = slack; dv_dsuf = dsuf; dv_rat = c.l_rat;
                dv_edge = e; dv_node = node; dv_seg = seg }
              :: !out
          else counts.ct_pruned <- counts.ct_pruned + 1
        end);
    if p <> no_edge then
      go (src_of t node p) ((p, node) :: seg) (dseg +. delay_of t node p)
  in
  go c.l_head c.l_suffix 0.0;
  let arr = Array.of_list (List.rev !out) in
  Array.stable_sort dev_compare arr;
  arr

(* The k worst candidates at one endpoint, as (rank, candidate) pairs
   in pop order — materialisation is the caller's business. *)
let enumerate_cands ?(slack_limit = infinity) ~counts ~k t ep =
  if k <= 0 then []
  else begin
    let tm = t.timer in
    let roots = ref [] in
    for ti = 0 to 1 do
      let a = Sta.Timer.at_late tm ep (tr_of ti) in
      let r = Sta.Timer.rat_late tm ep (tr_of ti) in
      let slack = r -. a in
      if a > neg_infinity && r < infinity then begin
        if slack < slack_limit then
          roots :=
            { dv_slack = slack; dv_dsuf = 0.0; dv_rat = r; dv_edge = -1;
              dv_node = (2 * ep) + ti; dv_seg = [] }
            :: !roots
        else counts.ct_pruned <- counts.ct_pruned + 1
      end
    done;
    let roots = Array.of_list (List.rev !roots) in
    Array.stable_sort dev_compare roots;
    if Array.length roots = 0 then []
    else begin
      let heap = Lq.create () in
      let push c =
        Lq.push heap c;
        counts.ct_pushed <- counts.ct_pushed + 1
      in
      push (cand_of_dev t ~parent_pop:(-1) roots 0);
      let results = ref [] in
      let rank = ref 0 in
      let running = ref true in
      while !running && !rank < k do
        match Lq.pop heap with
        | None -> running := false
        | Some c ->
          counts.ct_popped <- counts.ct_popped + 1;
          let pop_ix = !rank in
          results := (pop_ix, c) :: !results;
          incr rank;
          if !rank < k then begin
            (* next sibling: already slack-filtered and sorted, O(1) *)
            if c.l_sib_pos + 1 < Array.length c.l_sibs then
              push
                (cand_of_dev t ~parent_pop:c.l_parent_pop c.l_sibs
                   (c.l_sib_pos + 1));
            (* first child: best deviation off this candidate's spine *)
            let devs = deviations t ~limit:slack_limit ~counts c in
            if Array.length devs > 0 then
              push (cand_of_dev t ~parent_pop:pop_ix devs 0)
          end
      done;
      List.rev !results
    end
  end

let enumerate_endpoint ?slack_limit ~k t ep =
  let counts = fresh_counts () in
  List.map
    (fun (rank, c) ->
      materialize t ep rank ~head:c.l_head ~suffix:c.l_suffix ~slack:c.l_slack)
    (enumerate_cands ?slack_limit ~counts ~k t ep)

(* The per-endpoint B&B cost scales with K, so the endpoint fan-out
   must split finer as K grows; [Parallel.reduce_grain]'s fixed 16-way
   target (its ~cost floor can only make chunks coarser) cannot express
   that, so the grain is computed here — still a pure function of
   (k, n), never of the pool, and the result's total-order sort makes
   the output independent of the split anyway. *)
let enumerate_grain ~k n =
  let ways = 16 * Int.max 1 (Int.min 8 (k / 8)) in
  Int.max 1 ((n + ways - 1) / ways)

(* per-run shared bound: a max-heap of the k best slacks seen so far
   across all endpoints; once full, its top is the running k-th-best
   and becomes (via Float.succ, to keep global ties alive for the
   endpoint-order tie-break) every later endpoint's effective slack
   limit.  The heap grows with the slacks actually offered, never to k
   up front.  The bound only ever tightens and any stale read is a
   valid looser bound, so the pruning — and therefore the post-sort
   output — is identical at every domain count even though the pruned
   work is not. *)
module Maxq = MakeHeap (struct
  type elt = float

  let dummy = neg_infinity
  let less (x : float) y = x > y
end)

type gbound = {
  gb_mutex : Mutex.t;
  gb_k : int;
  gb_heap : Maxq.t;
  gb_bound : float Atomic.t;
}

let gbound_create k =
  { gb_mutex = Mutex.create (); gb_k = k; gb_heap = Maxq.create ();
    gb_bound = Atomic.make infinity }

let gbound_offer gb slacks =
  Mutex.lock gb.gb_mutex;
  let h = gb.gb_heap in
  List.iter
    (fun s ->
      if h.Maxq.n < gb.gb_k then Maxq.push h s
      else if s < h.Maxq.a.(0) then begin
        ignore (Maxq.pop h);
        Maxq.push h s
      end)
    slacks;
  if h.Maxq.n = gb.gb_k then Atomic.set gb.gb_bound h.Maxq.a.(0);
  Mutex.unlock gb.gb_mutex

type gacc = { mutable ga_entries : (int * int * lcand) list; ga_counts : counts }

let enumerate_run ?pool ?obs ?(slack_limit = infinity) ~k t =
  if k <= 0 then []
  else begin
    let eps = t.graph.Sta.Graph.endpoints in
    let n = Array.length eps in
    let tm = t.timer in
    let p = match pool with Some p -> p | None -> Parallel.sequential_pool in
    (* cheap prescan: each endpoint's worst (rank-0) slack.  Processing
       endpoints worst-first makes the k-th-best bound tighten after the
       first few endpoints, so the healthy majority is skipped before
       its B&B starts.  Memoized on the view: a view freezes one
       placement's timing, so repeated enumerations (e.g. consecutive
       what-if queries against a serving daemon) reuse it verbatim. *)
    let ep_slack, order =
      match t.prescan with
      | Some (ep_slack, order) ->
        Option.iter
          (fun o -> Obs.add o "paths.prescan_reused" 1.0)
          obs;
        (ep_slack, order)
      | None ->
        let ep_slack = Array.make n infinity in
        for i = 0 to n - 1 do
          let ep = eps.(i) in
          let s = ref infinity in
          for ti = 0 to 1 do
            let a = Sta.Timer.at_late tm ep (tr_of ti) in
            let r = Sta.Timer.rat_late tm ep (tr_of ti) in
            if a > neg_infinity && r < infinity then s := Float.min !s (r -. a)
          done;
          ep_slack.(i) <- !s
        done;
        let order = Array.init n Fun.id in
        Array.sort
          (fun a b ->
            let c = Float.compare ep_slack.(a) ep_slack.(b) in
            if c <> 0 then c else Int.compare a b)
          order;
        t.prescan <- Some (ep_slack, order);
        (ep_slack, order)
    in
    let gb = gbound_create k in
    let acc =
      Parallel.parallel_for_reduce p ?obs ~grain:(enumerate_grain ~k n) n
        ~init:(fun _ -> { ga_entries = []; ga_counts = fresh_counts () })
        ~body:(fun acc j ->
          (* tag each candidate with its endpoint's position in the
             endpoint array so ranking ties resolve to the first endpoint
             in endpoint order, whatever the scan order *)
          let i = order.(j) in
          let b = Atomic.get gb.gb_bound in
          let lim =
            if b < infinity then Float.min slack_limit (Float.succ b)
            else slack_limit
          in
          if ep_slack.(i) >= lim then
            acc.ga_counts.ct_skipped <- acc.ga_counts.ct_skipped + 1
          else begin
            let cands =
              enumerate_cands ~slack_limit:lim ~counts:acc.ga_counts ~k t
                eps.(i)
            in
            (match cands with
            | [] -> ()
            | _ -> gbound_offer gb (List.map (fun (_, c) -> c.l_slack) cands));
            List.iter
              (fun (rank, c) -> acc.ga_entries <- (i, rank, c) :: acc.ga_entries)
              cands
          end)
        ~merge:(fun a b ->
          a.ga_entries <- List.rev_append b.ga_entries a.ga_entries;
          a.ga_counts.ct_pushed <- a.ga_counts.ct_pushed + b.ga_counts.ct_pushed;
          a.ga_counts.ct_popped <- a.ga_counts.ct_popped + b.ga_counts.ct_popped;
          a.ga_counts.ct_pruned <- a.ga_counts.ct_pruned + b.ga_counts.ct_pruned;
          a.ga_counts.ct_skipped <-
            a.ga_counts.ct_skipped + b.ga_counts.ct_skipped;
          a)
    in
    Option.iter
      (fun o ->
        let c = acc.ga_counts in
        Obs.add o "paths.pushed" (float_of_int c.ct_pushed);
        Obs.add o "paths.popped" (float_of_int c.ct_popped);
        Obs.add o "paths.pruned" (float_of_int c.ct_pruned);
        Obs.add o "paths.endpoints_skipped" (float_of_int c.ct_skipped))
      obs;
    let compare_entry (ia, ra, a) (ib, rb, b) =
      let c = Float.compare a.l_slack b.l_slack in
      if c <> 0 then c
      else
        let c = Int.compare ia ib in
        if c <> 0 then c else Int.compare ra rb
    in
    let sorted = List.sort compare_entry acc.ga_entries in
    (* materialise only the global top-k survivors, tail-recursively *)
    let rec take acc n = function
      | [] -> List.rev acc
      | _ when n = 0 -> List.rev acc
      | (i, rank, c) :: rest ->
        take
          (materialize t eps.(i) rank ~head:c.l_head ~suffix:c.l_suffix
             ~slack:c.l_slack
          :: acc)
          (n - 1) rest
    in
    take [] k sorted
  end

let k_enumerate = Obs.kernel "paths.enumerate"

let enumerate ?pool ?obs:(obs = Obs.disabled) ?slack_limit ~k t =
  Obs.start obs k_enumerate;
  let paths = enumerate_run ?pool ~obs ?slack_limit ~k t in
  Obs.stop obs;
  paths

let severity paths =
  let worst = List.fold_left (fun acc p -> Float.min acc p.pt_slack) 0.0 paths in
  let denom = Float.max 1.0 (-.worst) in
  fun p ->
    if p.pt_slack >= 0.0 then 0.0 else Float.min 1.0 (-.p.pt_slack /. denom)

let net_criticality t paths =
  let counts = Array.make (Netlist.num_nets t.graph.Sta.Graph.design) 0.0 in
  let sev = severity paths in
  List.iter
    (fun p ->
      let w = sev p in
      if w > 0.0 then
        List.iter (fun n -> counts.(n) <- counts.(n) +. w) p.pt_nets)
    paths;
  counts
