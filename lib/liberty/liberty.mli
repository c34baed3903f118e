(** Cell timing library: the non-linear delay model (NLDM).

    Cell delay and output slew are characterised by 2D look-up tables
    indexed by (input slew, output capacitive load); sequential constraints
    (setup/hold) by tables indexed by (data slew, clock slew).  The tables
    support bilinear interpolation {e and} the gradient of a query with
    respect to both query coordinates, which is what makes the timing
    engine differentiable end-to-end (paper §3.5.2, Fig. 6).

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

  val of_function : x_axis:float array -> y_axis:float array -> (float -> float -> float) -> t

  val lookup : t -> float -> float -> float
  (** [lookup lut x y] bilinearly interpolates (or extrapolates) at [(x, y)]. *)

  val gradient : t -> float -> float -> float * float
  (** Partial derivatives [(d/dx, d/dy)] of [lookup] at the query point;
      piecewise constant within a table cell. *)

  val lookup_with_gradient : t -> float -> float -> float * float * float
  (** [(value, d/dx, d/dy)] in one pass. *)
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
