(** Cell timing library: the non-linear delay model (NLDM).

    Cell delay and output slew are characterised by 2D look-up tables
    indexed by (input slew, output capacitive load); sequential constraints
    (setup/hold) by tables indexed by (data slew, clock slew).  The tables
    support bilinear interpolation {e and} the gradient of a query with
    respect to both query coordinates, which is what makes the timing
    engine differentiable end-to-end (paper §3.5.2, Fig. 6).

    Every timer runs this query once per (arc, transition) pair, so it
    allocates nothing: {!Lut.eval} and {!Lut.eval_pair} write into a
    caller's float array, and the segment search is a loop, not a
    closure.  A cell arc's delay and slew tables are read at the same
    (slew, load) point; when the two share their axis arrays
    physically, {!Lut.eval_pair} searches once for both.  The synthetic
    library builds every table on two shared axes, and {!Io.of_string}
    interns equal axes, so a parsed library shares them too; tables
    whose axes differ take two searches.  The values are bit-identical
    on either path.

    Units: time ps, capacitance fF, resistance kOhm, distance um
    (so kOhm x fF = ps exactly). *)

(** A 2D look-up table.  Axes are strictly increasing.  Queries outside
    the axis range extrapolate linearly from the boundary cell, matching
    standard STA practice. *)
module Lut : sig
  type t = private {
    x_axis : float array;  (** first index, e.g. input slew. *)
    y_axis : float array;  (** second index, e.g. output load. *)
    values : float array;  (** row-major, [values.(i * ny + j)]. *)
  }

  val make : x_axis:float array -> y_axis:float array -> values:float array -> t
  (** @raise Invalid_argument on empty or non-increasing axes or a value
      array whose length is not [nx * ny]. *)

  val lookup : t -> float -> float -> float
  (** [lookup lut x y] bilinearly interpolates (or extrapolates) at [(x, y)]. *)

  val eval : t -> float -> float -> float array -> int -> unit
  (** [eval lut x y out o] writes the value at [(x, y)] and its partials
      d/dx, d/dy (piecewise constant within a table cell) to [out.(o)],
      [out.(o + 1)], [out.(o + 2)]. *)

  val eval_pair :
    grad:bool -> t -> t -> float -> float -> float array -> int -> unit
  (** [eval_pair ~grad a b x y out o] evaluates two tables at one point:
      with [grad], [a]'s value and partials at [o .. o + 2] and [b]'s at
      [o + 3 .. o + 5], as {!eval} writes them; without, the two values
      alone at [o] and [o + 1].  One segment search when [a] and [b]
      share their axis arrays physically, two otherwise. *)
end

(** Direction of a library pin. *)
type pin_direction = Lib_input | Lib_output

(** Unateness of a delay arc: a positive-unate arc maps a rising input to
    a rising output; negative unate inverts; non-unate contributes to
    both output transitions. *)
type sense = Positive_unate | Negative_unate | Non_unate

(** A combinational (or clock-to-output) delay arc between two pins of
    the same cell, with the standard four NLDM tables. *)
type timing_arc = {
  arc_from : int;  (** index into the cell's [pins]. *)
  arc_to : int;
  sense : sense;
  cell_rise : Lut.t;
  cell_fall : Lut.t;
  rise_transition : Lut.t;
  fall_transition : Lut.t;
}

(** A setup/hold constraint between a clock pin and a data pin.
    Tables are indexed by (data slew, clock slew). *)
type check_arc = {
  check_data : int;
  check_clock : int;
  setup_rise : Lut.t;
  setup_fall : Lut.t;
  hold_rise : Lut.t;
  hold_fall : Lut.t;
}

type lib_pin = {
  lp_name : string;
  lp_direction : pin_direction;
  lp_capacitance : float;  (** input pin cap, fF; 0 for outputs. *)
  lp_is_clock : bool;
}

type lib_cell = {
  lc_name : string;
  lc_area : float;
  lc_width : float;   (** um. *)
  lc_height : float;
  lc_pins : lib_pin array;
  lc_arcs : timing_arc array;
  lc_checks : check_arc array;
  lc_is_sequential : bool;
}

type t = {
  lib_name : string;
  r_unit : float;  (** wire resistance, kOhm per um. *)
  c_unit : float;  (** wire capacitance, fF per um. *)
  default_slew : float;  (** slew assumed at primary inputs, ps. *)
  lib_cells : lib_cell array;
}

val find_cell : t -> string -> lib_cell option
val cell_index : t -> string -> int option
val pin_index : lib_cell -> string -> int option
val output_pins : lib_cell -> int list
val input_pins : lib_cell -> int list

(** A deterministic synthetic standard-cell library in the spirit of a
    45nm educational PDK: inverters/buffers in several drive strengths,
    2-input logic, complex gates, a 2:1 mux and D flip-flops.  Table
    values follow a saturating-resistance analytic model sampled on 7x7
    grids, so they are genuinely non-linear and exercise the LUT
    interpolation and its gradients. *)
module Synthetic : sig
  val default : unit -> t

  val delay_model :
    drive_r:float -> intrinsic:float -> slew_sensitivity:float ->
    float -> float -> float
  (** The analytic generator behind the tables, exported for tests:
      [delay_model ~drive_r ~intrinsic ~slew_sensitivity slew load]. *)
end

(** Liberty-lite: a small text format able to round-trip [t].  This is a
    structural stand-in for the industrial Liberty format. *)
module Io : sig
  val to_string : t -> string
  val of_string : ?file:string -> string -> t
  (** @raise Failure with a uniformly ["WHERE:LINE:COL:"]-annotated
      message on parse errors ([file], when given, names the source in
      the location). *)

  val save : string -> t -> unit
  val load : string -> t
end
