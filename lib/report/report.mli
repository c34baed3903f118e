(** Result-table rendering and the paper's published numbers.

    The bench harness regenerates each table/figure of the paper and
    prints it next to the published values so the reproduction's *shape*
    (who wins, by roughly what factor) can be checked at a glance. *)

(** Monospace/CSV table builder. *)
module Table : sig
  type t

  val create : string list -> t
  (** [create headers]. *)

  val add_row : t -> string list -> unit
  (** @raise Invalid_argument if the arity differs from the header. *)

  val render : t -> string
  (** Aligned plain-text rendering with a header rule. *)

  val render_csv : t -> string
end

val geometric_mean : float list -> float
(** Geometric mean of positive values; 0 on the empty list. *)

val ratio_string : float -> string
(** Format a ratio like ["1.282"]. *)

(** The published evaluation numbers (Table 2 and Table 3 of the paper),
    used as reference columns in bench output and EXPERIMENTS.md. *)
module Paper : sig
  type table3_row = {
    bench : string;
    dp_wns : float;       (** DREAMPlace [16] WNS, x10^3 ps. *)
    dp_tns : float;       (** x10^5 ps. *)
    dp_hpwl : float;      (** x10^6. *)
    dp_runtime : float;   (** seconds. *)
    nw_wns : float;       (** net weighting [24]. *)
    nw_tns : float;
    nw_hpwl : float;
    nw_runtime : float;
    ours_wns : float;
    ours_tns : float;
    ours_hpwl : float;
    ours_runtime : float;
  }

  val table3 : table3_row list

  type table2_row = { t2_bench : string; t2_cells : int; t2_nets : int; t2_pins : int }

  val table2 : table2_row list

  val avg_ratio_wns : [ `Dreamplace | `Net_weighting ] -> float
  (** Published average WNS ratio vs. "ours" (1.897 and 1.282). *)

  val avg_ratio_tns : [ `Dreamplace | `Net_weighting ] -> float
  val avg_ratio_runtime : [ `Dreamplace | `Net_weighting ] -> float
end
