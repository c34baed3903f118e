(** Gate-level structural Verilog, the industry interchange for mapped
    netlists (the ICCAD 2015 bundles ship one per design).

    Supported subset — exactly what a mapped netlist needs:

    {v
    module top (pi0, po0);
      input pi0;
      output po0;
      wire n1, n2;
      NAND2_X1 u1 (.A(pi0), .B(n2), .Y(n1));
      DFF_X1 ff1 (.D(n1), .CK(clk), .Q(n2));
    endmodule
    v}

    One module per file; named port connections only; instances must
    reference cells of the resolving {!Liberty.t}.  Comments ([//] and
    [/* */]), escaped identifiers ([\foo ]) and multi-name [input]/
    [output]/[wire] declarations are handled.

    Because Verilog carries no geometry, {!import} invents it: ports
    become fixed pads spread along the periphery of a region sized for
    the given utilisation, cells get deterministic initial positions and
    library pin offsets — i.e. the result is ready for placement.
    {!export} writes the connectivity back out (geometry is carried by
    the bookshelf format instead). *)

val export : Netlist.t -> Liberty.t -> string
(** Structural Verilog for a design.  Pads become ports (input pads are
    module inputs); unconnected pins are left unconnected.
    @raise Invalid_argument if a cell's library index is out of range. *)

val import :
  ?file:string -> ?utilization:float -> ?row_height:float -> Liberty.t ->
  string -> Netlist.t
(** Parse one module and build a placeable design ([utilization]
    defaults to 0.55).  Clock pins wired to an undriven net are left
    unconnected (ideal clock), matching the generator's convention.
    @raise Failure with a uniformly positioned message
    (["WHERE:LINE: parse error: ..."] for syntax, ["WHERE:LINE: ..."]
    for unknown cells/pins, circular assigns and every
    {!Netlist.Builder} error, such as a duplicate name or a second
    driver on a net, at the declaration that caused it; [WHERE] is
    [file] when given, ["verilog"] otherwise). *)

val save : string -> Netlist.t -> Liberty.t -> unit
val load : ?utilization:float -> ?row_height:float -> Liberty.t -> string -> Netlist.t
