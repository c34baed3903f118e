(** Placement visualisation: SVG plots.

    A placement plot is the fastest way to sanity-check a run: cells as
    rectangles (pads dark, flip-flops tinted), optional net fly-lines and
    the critical path overlaid in red. *)

(** SVG rendering. *)
module Svg : sig
  type options = {
    width_px : int;          (** output width; height follows the region. *)
    draw_nets : bool;        (** net fly-lines, driver to each sink. *)
    max_net_degree : int;    (** skip fly-lines of nets above this degree. *)
    highlight_path : Sta.Timer.path_step list;
        (** overlay, e.g. the [pt_steps] of [Paths.enumerate ~k:1]'s path. *)
    highlight_paths : Sta.Timer.path_step list list;
        (** multi-path overlay, worst first (e.g. the top-K paths from
            the [Paths] engine); the worst path draws red and on top,
            runners-up fade towards yellow. *)
    congestion : (int * float array) option;
        (** congestion heatmap overlay: [(n, util)] with [util] a
            row-major [(bx * n) + by] per-bin utilization grid (e.g.
            [Route.Rudy.utilization]).  Bins at or above 0.5 draw as
            translucent red squares, deeper red as utilization grows;
            kept as raw arrays so [Viz] stays decoupled from [Route]. *)
  }

  val default_options : options

  val render : ?options:options -> Netlist.t -> string
  (** A standalone SVG document of the design at its current placement. *)

  val save : ?options:options -> string -> Netlist.t -> unit
end
