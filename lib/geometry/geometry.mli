(** Planar geometry primitives shared by every placement subsystem.

    Distances are in microns; the origin is the lower-left corner of the
    placement region.  All types are immutable. *)

(** A point in the plane. *)
module Point : sig
  type t = { x : float; y : float }

  val make : float -> float -> t
end

(** An axis-aligned rectangle given by its lower-left and upper-right
    corners.  Degenerate (zero-area) rectangles are allowed. *)
module Rect : sig
  type t = { lx : float; ly : float; hx : float; hy : float }

  val make : lx:float -> ly:float -> hx:float -> hy:float -> t
  (** @raise Invalid_argument if [hx < lx] or [hy < ly]. *)

  val of_center : Point.t -> width:float -> height:float -> t
  val width : t -> float
  val height : t -> float
  val area : t -> float
  val center : t -> Point.t
end

(** Bounding box accumulation over point streams. *)
module Bbox : sig
  type t

  val empty : t
  val add_xy : t -> float -> float -> t
  val to_rect : t -> Rect.t option
  val half_perimeter : t -> float
  (** Half-perimeter of the box; 0 when fewer than one point was added. *)
end

val clamp : lo:float -> hi:float -> float -> float
(** [clamp ~lo ~hi v] limits [v] to the interval [[lo, hi]]. *)
