(** Gate-level netlist representation for placement and timing analysis.

    A design is a set of {e cells} (standard cells, macros, IO pads), each
    carrying {e pins}; pins are grouped into {e nets}.  Cell coordinates
    are the cell {b center} in microns; pin locations are cell center plus
    a fixed offset.  Identifiers are dense integers so that all per-object
    state can live in flat arrays (the layout the level-parallel timing
    kernels expect). *)

type direction = Input | Output

(** A pin instance.  [lib_pin] indexes the pin of the owning cell's
    library cell ([-1] for pad pins).  [net = -1] means unconnected. *)
type pin = {
  pin_id : int;
  pin_name : string;  (** instance-qualified, e.g. ["u42/A"]. *)
  cell : int;
  offset_x : float;
  offset_y : float;
  direction : direction;
  net : int;
  lib_pin : int;
}

(** A cell instance.  [lib_cell = -1] marks pads and macros, which carry
    their own geometry.  [fixed] cells are never moved by the placer.
    [width]/[height] are mutable so routability-driven inflation
    ([Route.Inflate]) can temporarily bloat a cell's footprint; every
    client that inflates is responsible for restoring the original
    sizes before the placement is consumed downstream. *)
type cell = {
  cell_id : int;
  cell_name : string;
  lib_cell : int;
  mutable width : float;
  mutable height : float;
  mutable x : float;  (** center x. *)
  mutable y : float;  (** center y. *)
  fixed : bool;
  cell_pins : int array;
}

(** A signal net.  [net_pins] lists the driver first when the net is
    driven.  [weight] is the placement net weight (1.0 by default),
    updated by net-weighting timing optimisation. *)
type net = {
  net_id : int;
  net_name : string;
  net_pins : int array;
  mutable weight : float;
}

(** A frozen design. *)
type t = {
  design_name : string;
  region : Geometry.Rect.t;  (** placement region. *)
  row_height : float;
  cells : cell array;
  pins : pin array;
  nets : net array;
}

val num_cells : t -> int
val num_pins : t -> int
val num_nets : t -> int

val pin_x : t -> int -> float
val pin_y : t -> int -> float
(** Current location of a pin (owner center + offset). *)

val net_driver : t -> int -> int option
(** The driving pin of a net, if any. *)

val net_sinks : t -> int -> int list
(** Sink (input-direction) pins of a net, in declaration order. *)

val net_hpwl : t -> int -> float
(** Half-perimeter wirelength of one net (0 for degenerate nets). *)

val total_hpwl : ?weighted:bool -> t -> float
(** Sum of [net_hpwl] over all nets; with [~weighted:true] each net is
    scaled by its weight. *)

val movable_cells : t -> int list

val cell_by_name : t -> string -> cell option
val pin_by_name : t -> string -> pin option

val reset_weights : t -> unit
(** Set every net weight back to 1.0. *)

val copy_positions : t -> float array * float array
(** Snapshot of cell centers as [(xs, ys)] indexed by cell id. *)

val restore_positions : t -> float array * float array -> unit

(** Incremental construction.  All [add_*] functions return dense ids in
    insertion order and validate the object they add, so an error is
    raised by the call that caused it:
    - every pin belongs to an existing cell, every net pin exists;
    - every net has at most one driver and at least one pin, and no
      pin is on two nets;
    - names are unique per object class.
    @raise Invalid_argument on violation, with a message naming the
    offending object. *)
module Builder : sig
  type builder

  val create :
    ?region:Geometry.Rect.t -> ?row_height:float -> string -> builder

  val add_cell :
    builder ->
    name:string ->
    lib_cell:int ->
    width:float ->
    height:float ->
    ?x:float ->
    ?y:float ->
    ?fixed:bool ->
    unit ->
    int

  val add_pin :
    builder ->
    cell:int ->
    name:string ->
    direction:direction ->
    ?offset_x:float ->
    ?offset_y:float ->
    ?lib_pin:int ->
    unit ->
    int

  val add_net : builder -> name:string -> pins:int list -> int
  (** Connect existing pins; the driver (if present) may appear anywhere,
      it is moved to the front. *)

  val freeze : builder -> t
  (** Build the design.  Its topology ([pin.net], [cell_pins],
      [net_pins]) is fixed from here on; only positions, footprints
      and net weights change. *)
end

(** Aggregate design statistics (Table 2 of the paper). *)
module Stats : sig
  type stats = {
    cells : int;
    movable : int;
    nets : int;
    pins : int;
    average_fanout : float;
    max_fanout : int;
    total_cell_area : float;
    region_area : float;
    utilization : float;
  }

  val compute : t -> stats
  val pp : Format.formatter -> stats -> unit
end
