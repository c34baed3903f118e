(** Static timing analysis (paper §2.1).

    The circuit is a DAG over pins with two arc kinds: {e net arcs} from a
    net's driver to each sink (wire delay, Elmore model) and {e cell arcs}
    between pins of one cell (NLDM look-up tables).  Pins are assigned
    logic levels by longest-path topological sorting; arrival times and
    slews propagate level by level; slacks compare arrival against
    required times at endpoints (flip-flop data pins and primary
    outputs).

    This module hosts the {b exact} timer (hard min/max), used for final
    scoring and for the net-weighting baseline; the differentiable
    (smoothed) engine lives in [Difftimer] and shares {!Graph}, {!Nets}
    and the forward kernel {!Forward}, of which exact STA is the
    [gamma = 0] case. *)

type transition = Rise | Fall

val transition_index : transition -> int
(** [Rise] is 0, [Fall] is 1; per-transition state is stored at
    [2 * pin + transition_index]. *)

(** Design constraints (SDC-lite): a single ideal clock, uniform IO
    timing. *)
module Constraints : sig
  type t = {
    clock_period : float;   (** ps. *)
    input_delay : float;    (** arrival time at primary inputs. *)
    output_delay : float;   (** margin required at primary outputs. *)
    input_slew : float;     (** slew of signals entering at PIs. *)
    clock_slew : float;     (** slew of the (ideal) clock at CK pins. *)
    output_load : float;    (** capacitance modelled at each PO pad, fF. *)
  }

  val default : t
end

(** The timing graph: levelised pins, cell arcs, checks and static
    per-pin data.  Built once per design; placement moves do not change
    it (paper §3.3 step 1). *)
module Graph : sig
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
    levels : int array array;     (** [levels.(l)] = pins at level [l]. *)
    (* Cell arcs, flattened to CSR.  Arc [a] runs from input pin
       [arc_from.(a)] to output pin [arc_to.(a)] with tables
       [arc_table.(a)]; [arc_mask.(a)] has bit
       [2 * tr_out + tr_in] set when input transition [tr_in] can drive
       output transition [tr_out] (from the arc's unateness).  The arc
       ids into pin [v] are [fanin_arc.(fanin_off.(v)) ..
       fanin_arc.(fanin_off.(v + 1) - 1)]; [fanout_off]/[fanout_arc]
       index the same arcs by source pin. *)
    arc_from : int array;
    arc_to : int array;
    arc_table : Liberty.timing_arc array;
    arc_mask : int array;
    fanin_off : int array;        (** length [npins + 1]. *)
    fanin_arc : int array;
    fanout_off : int array;
    fanout_arc : int array;
    (* Net connectivity, flattened once at build time. *)
    net_driver_of : int array;    (** per net; [-1] when undriven. *)
    net_sink_off : int array;     (** length [nnets + 1]. *)
    net_sink : int array;         (** input-direction pins, CSR by net. *)
    check_of_pin : check option array;  (** per data pin. *)
    pin_cap : float array;        (** sink capacitance per pin. *)
    is_endpoint : bool array;
    is_start : bool array;
    is_clock_pin : bool array;
    primary_inputs : int list;    (** pad output pins. *)
    primary_outputs : int list;   (** pad input pins. *)
    endpoints : int array;
  }

  val build : Netlist.t -> Liberty.t -> Constraints.t -> t
  (** @raise Invalid_argument on a combinational cycle or if a cell
      references a pin missing from its library cell. *)

  val max_level : t -> int

  val num_arcs : t -> int

  val arc_admits : t -> int -> tr_out:transition -> tr_in:transition -> bool
  (** [arc_admits g a ~tr_out ~tr_in] tests arc [a]'s compatibility mask:
      whether [tr_in] at [arc_from.(a)] contributes to [tr_out] at
      [arc_to.(a)]. *)
end

(** Per-net Steiner trees plus RC state, shared by the exact and the
    differentiable timer.  [trees.(n) = None] for nets with fewer than
    two pins. *)
module Nets : sig
  type t = {
    graph : Graph.t;
    mutable trees : (Steiner.t * Rc.t) option array;
    tree_index : int array;
    (** [tree_index.(p)] is pin [p]'s node index inside its net's tree
        ([-1] if the net has no tree). *)
    anchor_off : int array;
    anchor_xs : float array;
    anchor_ys : float array;
    (** pin positions at each net's last (re-)topologisation, CSR
        layout: net [n]'s pins at [anchor_off.(n) ..].  Used by
        {!rebuild} to skip nets that have not moved past the dirty
        threshold. *)
  }

  val create : Graph.t -> t
  (** Builds topologies from the current placement and evaluates RC. *)

  val rebuild :
    ?dirty_threshold:float -> ?pool:Parallel.pool -> ?obs:Obs.t -> t -> unit
  (** Re-run Steiner construction from current pin positions (the
      periodic "call FLUTE" step of §3.6) and re-evaluate RC.  The
      default path splits the work into three observable sub-kernels:
      [steiner.dirty] (nets whose every pin moved at most
      [dirty_threshold] in L-inf since their anchor: provenance refresh
      only; the threshold is scaled up by [degree /
      Steiner.Lut.max_degree] above the LUT degree, since one pin's
      jitter has vanishing influence on a high-fanout net's topology and
      a fixed threshold would keep such nets permanently dirty),
      [steiner.lut] (dirty nets of degree <=
      [Steiner.Lut.max_degree]: exact topology-LUT rebuild), and
      [steiner.full] (dirty nets above the LUT degree: Prim +
      Steinerisation).  Omitting [dirty_threshold] re-topologises every
      net; a threshold of [0.] is bit-identical to that (a rebuild of an
      unmoved net reproduces its tree exactly).  With [pool], nets build
      in parallel; each task writes only its own slot and the LUT phase
      only reads the shipped topology table, so the result is
      bit-identical to sequential at any domain count. *)

  val refresh : ?pool:Parallel.pool -> ?obs:Obs.t -> t -> unit
  (** Keep topologies; refresh coordinates via Steiner provenance and
      re-evaluate RC (the cheap between-FLUTE-calls step of §3.6).
      Net-parallel under [pool], same determinism as {!rebuild}. *)
end

(** The forward timing kernel shared by {!Timer}, {!Incremental} and
    [Difftimer]: the only code that walks a pin's fan-in and queries the
    delay/slew LUTs of its timing arcs.  Paper §3 defines the
    differentiable timer as exact STA with every max over fan-in
    replaced by a [gamma]-wide Log-Sum-Exp (Eq. 5, 9-11); the kernel is
    parameterised by that [gamma] alone.  [gamma = 0] takes the hard max
    (exact STA); [gamma > 0] follows the max pass with the shifted-sum
    LSE pass.

    Both write the late arrival/slew state and a tape with one slot per
    [(arc, tr_out, tr_in)] at [4 * a + 2 * tr_out + tr_in], evaluated at
    the arc input's slew and the arc output's load.  [tape_d] (the delay)
    is written at every [gamma]; the slew value and the four partials in
    slew and load, which only the LSE pass and the difftimer's backward
    gather read, are written at [gamma > 0] only.  A slot is meaningful
    only when [tr_in] is reachable at [arc_from.(a)] and the arc admits
    the pair.  Every later reader of an arc delay (RAT sweep, path
    retrace, top-K paths, the difftimer's backward gather) replays the
    tape instead of querying the LUTs again.  Each slot costs one
    {!Liberty.Lut.eval_pair}: the delay and slew tables share one
    segment search, and at [gamma = 0] the query computes values only.

    An exact state (created without [smooth]) also carries the early
    (hold) lane [at_e]/[sl_e]: the same fan-in walk takes the hard min
    of the early arrivals and slews, with LUTs evaluated at the early
    slew, values only, and not taped.  A smooth state has empty early
    arrays and never enters the lane. *)
module Forward : sig
  type t = {
    nets : Nets.t;
    at : float array;          (** late arrival, [2 * pin + transition]. *)
    slew : float array;
    at_e : float array;        (** early arrival; empty when smooth. *)
    sl_e : float array;        (** early slew; empty when smooth. *)
    tape_d : float array;      (** delay LUT value. *)
    tape_dd_ds : float array;  (** d delay / d input slew. *)
    tape_dd_dl : float array;  (** d delay / d load. *)
    tape_s : float array;      (** output slew LUT value. *)
    tape_ds_ds : float array;
    tape_ds_dl : float array;
  }

  val create : ?smooth:bool -> Nets.t -> t
  (** [smooth] (default false) allocates the slew and partial tapes that
      {!pin} writes at [gamma > 0] and leaves the early lane empty;
      without it the state carries the early lane, its smooth tapes are
      empty and it supports [gamma = 0] only (the exact timer's, a sixth
      of the tape memory). *)

  val reset : t -> unit
  (** Every pin unreached ([at = neg_infinity], [slew = 0]; early lane
      [infinity]), then the startpoints, in both lanes: primary inputs
      at the input delay and slew, clock pins at 0 with the clock
      slew. *)

  val pin : t -> gamma:float -> int -> unit
  (** Propagate into one pin from its net-arc and cell-arc fan-in,
      refreshing the pin's fan-in tape slots (and, in an exact state,
      its early lane, in the same walk).  Reads strictly lower levels
      only and writes only this pin's state and slots. *)

  val sweep : ?pool:Parallel.pool -> ?obs:Obs.t -> t -> (int -> unit) -> unit
  (** [sweep t f] calls [f] on every pin, level by level; the pins of one
      level run data-parallel under [pool], so [f] must read strictly
      lower levels only and write only the pin's own state. *)
end

(** Exact timer: one state, analysed in full by {!run} and in part by
    {!Incremental.update}.  Per-pin required times come from one
    backward sweep, run by the first {!rat_late}, {!pin_slack_late} or
    {!net_slack} after either, so no read is stale;
    that first read must not come from concurrent pool tasks. *)
module Timer : sig
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
    (** one entry per constrained endpoint, worst setup first. *)
  }

  type t

  val create : Graph.t -> t
  val nets : t -> Nets.t

  val run :
    ?rebuild_trees:bool -> ?pool:Parallel.pool -> ?obs:Obs.t -> t -> report
  (** Full analysis on the current placement.  [rebuild_trees] (default
      true) reconstructs Steiner topologies first; pass false to reuse
      topologies and only refresh coordinates.  Moves queued by
      {!Incremental.move_cell} are part of the analysis and leave the
      queue.  [pool] parallelises the
      Steiner/RC construction over nets and the forward propagation over
      the pins of each level: {!Forward.pin} at [gamma = 0] computes the
      late max and the early (hold) min in one walk, reading only lower
      levels and writing only the pin's own state, so pooled reports are
      bit-identical to sequential ones.  The endpoint pass and the RAT
      sweep stay sequential.  [obs] records the tree maintenance as
      [steiner.rebuild]/[steiner.refresh] and the propagation as
      [sta.exact]. *)

  val at_late : t -> int -> transition -> float
  (** Latest arrival time at a pin after {!run}; [neg_infinity] when the
      pin is unreachable from any startpoint. *)

  val at_early : t -> int -> transition -> float
  (** Earliest arrival time (the {!Forward} early lane), [infinity] when
      the pin is unreachable. *)

  val slew_late : t -> int -> transition -> float
  val rat_late : t -> int -> transition -> float
  (** Required arrival time (late/setup), [infinity] if unconstrained. *)

  val arc_delay : t -> int -> tr_out:transition -> tr_in:transition -> float
  (** [arc_delay t a ~tr_out ~tr_in] is the late delay of cell arc [a]
      from [tr_in] to [tr_out] that the last propagation used (the
      {!Forward} tape).  Meaningful only when [tr_in] is reachable at the
      arc's input ([at_late > neg_infinity]) and the arc admits the pair
      ({!Graph.arc_admits}). *)

  val pin_slack_late : t -> int -> float
  (** [min over transitions (rat - at)]; [infinity] when unconstrained. *)

  val net_slack : t -> int -> float
  (** Worst [pin_slack_late] over the net's pins (used by net-based
      timing-driven placement, §2.3). *)

  (** One pin of a data path with its late arrival and slew.  The path
      engine (lib/paths) lists a path's steps startpoint first; paths
      like these are what exceed 300 stages in industrial designs
      (§2.2). *)
  type path_step = {
    ps_pin : int;
    ps_transition : transition;
    ps_at : float;
    ps_slew : float;
  }

  val pp_path : Graph.t -> Format.formatter -> path_step list -> unit

  val pp_report : Format.formatter -> report -> unit
end

(** Incremental timing analysis: the move-and-update operations on the
    one {!Timer} state.

    The ICCAD 2015 contest the paper evaluates on is about {e
    incremental} timing-driven placement [33], and the authors' timer
    line descends from GPU-accelerated incremental STA [35].  After
    cells move, {!update} re-propagates only the affected cones: the
    moved cells' nets are re-evaluated (Elmore on refreshed Steiner
    coordinates), their sinks and drivers are marked dirty, and
    dirtiness spreads level by level only where arrival times or slews
    actually change.  A {!Timer.run} and an {!update} act on the same
    value, in any order, with no resynchronisation.

    Restriction: Steiner topologies are refreshed through provenance,
    not rebuilt (call {!Timer.run} for a from-scratch analysis). *)
module Incremental : sig
  type t = Timer.t

  (** Work accounting for the last {!update} (observability for tests,
      benchmarks and the serving daemon). *)
  type update_stats = {
    us_pins : int;       (** pins re-evaluated *)
    us_changed : int;    (** pins whose timing state actually changed *)
    us_nets : int;       (** nets whose RC state was refreshed *)
    us_levels : int;     (** distinct graph levels visited *)
    us_endpoints : int;  (** endpoints whose slack was recomputed *)
  }

  val create : Graph.t -> t
  (** {!Timer.create} followed by a full {!Timer.run}. *)

  val move_cell : t -> int -> x:float -> y:float -> unit
  (** Move a cell (updates the design in place) and queue its timing
      cone for re-evaluation.  Cheap; no propagation happens yet.
      Mirrors the legalizer's placement domain: the target must keep the
      cell's bounding box inside the core region, and the cell must be
      movable.
      @raise Invalid_argument on an out-of-range cell id, a fixed
      (pad/macro) cell, a non-finite coordinate, or a position whose
      bounding box leaves the core region. *)

  val update : ?obs:Obs.t -> t -> Timer.report
  (** Propagate all pending moves and return the refreshed report —
      bit-identical to [Timer.run ~rebuild_trees:false] on the same
      placement, and so is every per-pin read afterwards.  [obs] records
      the pass as [sta.incremental] with pins/nets/changed counters. *)

  val last_stats : t -> update_stats
  (** Full work accounting for the last {!update}. *)
end
