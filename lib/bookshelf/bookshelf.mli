(** Bookshelf-lite: a self-contained text format for designs.

    The ICCAD 2015 contest distributes designs as Bookshelf file bundles
    (.nodes/.nets/.pl) plus Liberty and SDC; this single-file equivalent
    carries the same information — cells with library bindings and
    placement, pins with offsets, nets, the placement region and the
    timing constraints — so benchmarks can be saved to disk, exchanged
    and reloaded.  Library cells are referenced by name and resolved
    against a [Liberty.t] at load time. *)

val to_string : Netlist.t -> Sta.Constraints.t -> string

val of_string :
  ?file:string -> Liberty.t -> string -> Netlist.t * Sta.Constraints.t
(** @raise Failure with a uniformly positioned message
    (["WHERE:LINE:COL: parse error: ..."] for syntax,
    ["WHERE:LINE: ..."] for resolution failures such as unknown cells
    or pins and for every {!Netlist.Builder} error, at the declaration
    that caused it; [WHERE] is [file] when given). *)

val save : string -> Netlist.t -> Sta.Constraints.t -> unit
val load : Liberty.t -> string -> Netlist.t * Sta.Constraints.t
