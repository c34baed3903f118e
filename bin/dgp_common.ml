(* Shared plumbing for the dgp_* command-line tools. *)

(* Bad input ends the tool with exit 1 and the loader's message: a
   parse error is located as FILE:LINE[:COL]: ..., an unreadable file
   names its path. *)
let input_errors f =
  try f () with
  | Failure msg | Sys_error msg | Invalid_argument msg ->
    prerr_endline msg;
    exit 1

let load_library = function
  | Some path -> input_errors (fun () -> Liberty.Io.load path)
  | None -> Liberty.Synthetic.default ()

(* A design comes from a bookshelf-lite file, a structural Verilog file
   (by extension; constraints fall back to defaults with the requested
   clock), or the named / sized synthetic generator. *)
let load_design lib ~design_file ~bench ~cells ~seed ~clock_period
    ?(hotspot = 0.0) ?(hotspot_clusters = 3) ?scale () =
  input_errors @@ fun () ->
  match design_file, bench with
  | Some path, _ when Filename.check_suffix path ".v" ->
    let design = Verilog.load lib path in
    (design,
     { Sta.Constraints.default with
       Sta.Constraints.clock_period })
  | Some path, _ -> Bookshelf.load lib path
  | None, Some name ->
    (match Workload.find_spec ?scale name with
     | Some spec ->
       Workload.generate lib
         { spec with
           Workload.sp_hotspot = hotspot;
           sp_hotspot_clusters = hotspot_clusters }
     | None ->
       Printf.eprintf "unknown benchmark %S; known: %s\n" name
         (String.concat ", "
            (List.map
               (fun s -> s.Workload.sp_name)
               (Workload.superblue_mini ())));
       exit 1)
  | None, None ->
    let spec =
      { Workload.default_spec with
        Workload.sp_cells = cells;
        sp_seed = seed;
        sp_clock_period = clock_period;
        sp_hotspot = hotspot;
        sp_hotspot_clusters = hotspot_clusters }
    in
    Workload.generate lib spec

(* The placement modes dgp_place and dgp_serve accept, by name;
   [mode_choices] ends their "unknown mode" messages. *)
let mode_of_string = function
  | "wl" | "wirelength" -> Some Core.Wirelength_only
  | "netweight" | "nw" -> Some (Core.Net_weighting Netweight.default_config)
  | "pathweight" | "pw" -> Some (Core.Net_weighting Netweight.path_config)
  | "timing" | "ours" -> Some (Core.Differentiable_timing Core.default_timing)
  | _ -> None

let mode_choices = "(wl|netweight|pathweight|timing)"

open Cmdliner

let lib_file =
  let doc = "Liberty-lite cell library file (default: built-in synth45)." in
  Arg.(value & opt (some string) None & info [ "lib" ] ~docv:"FILE" ~doc)

let design_file =
  let doc = "Load the design from a bookshelf-lite $(docv)." in
  Arg.(value & opt (some string) None & info [ "design" ] ~docv:"FILE" ~doc)

let bench_name =
  let doc = "Use a named superblue-mini benchmark (e.g. superblue4-mini)." in
  Arg.(value & opt (some string) None & info [ "bench" ] ~docv:"NAME" ~doc)

let cells =
  let doc = "Synthetic design size when generating ad hoc." in
  Arg.(value & opt int 2000 & info [ "cells" ] ~docv:"N" ~doc)

let seed =
  let doc = "Generator seed." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc)

let clock_period =
  let doc = "Clock period in ps for ad hoc designs." in
  Arg.(value & opt float 900.0 & info [ "clock" ] ~docv:"PS" ~doc)

let hotspot =
  let doc = "Fraction of combinational cells wired into tight clusters \
             that place as routing hotspots (generated designs only; \
             0 = off)." in
  Arg.(value & opt float 0.0 & info [ "hotspot" ] ~docv:"F" ~doc)

let hotspot_clusters =
  let doc = "Number of hotspot clusters when $(b,--hotspot) is set." in
  Arg.(value & opt int 3 & info [ "hotspot-clusters" ] ~docv:"N" ~doc)

let bench_scale =
  let doc = "Cell-count scale for named superblue-mini benchmarks: 0.01 \
             (default) gives ~10k-cell minis, 0.1 reaches ~100k and \
             0.5-1.0 the paper's million-cell range (pair with \
             $(b,--multilevel))." in
  Arg.(value & opt float 0.01 & info [ "scale" ] ~docv:"S" ~doc)
