(* Per-kernel observability: monotonic scoped spans, counters/gauges,
   aggregation and a JSONL trace.  See obs.mli for the model.

   Hot-path representation: everything is an [int].  Nanosecond stamps
   fit a 63-bit int for ~292 years, kernels are interned to dense ints,
   and span events pack (iteration, kernel, begin/end) into one tagged
   int, so recording touches only unboxed int arrays — no per-span
   allocation beyond the boxed int64 returned by the clock primitive.  The
   disabled instance tests one boolean and returns. *)

module Clock = struct
  external now_ns : unit -> (int64[@unboxed])
    = "dgp_obs_clock_ns_byte" "dgp_obs_clock_ns"
  [@@noalloc]

  let now () = Int64.to_float (now_ns ()) *. 1e-9
end

let tick () = Int64.to_int (Clock.now_ns ())

external peak_rss_raw : unit -> (float[@unboxed])
  = "dgp_obs_peak_rss_byte" "dgp_obs_peak_rss"
[@@noalloc]

(* Fallback for kernels whose getrusage does not fill ru_maxrss: the
   VmHWM line of /proc/self/status, reported in kB. *)
let proc_vmhwm_bytes () =
  match open_in "/proc/self/status" with
  | exception _ -> 0.0
  | ic ->
    let v = ref 0.0 in
    (try
       while !v = 0.0 do
         let line = input_line ic in
         if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
           Scanf.sscanf (String.sub line 6 (String.length line - 6))
             " %f" (fun kb -> v := kb *. 1024.0)
       done
     with End_of_file | Scanf.Scan_failure _ | Failure _ -> ());
    close_in_noerr ic;
    !v

let peak_rss_bytes () =
  let v = peak_rss_raw () in
  if v > 0.0 then v else proc_vmhwm_bytes ()

(* Kernel handles: dense ints in interning order.  The table is
   filled at module initialisation (each library interns its names at
   toplevel), so it needs no lock, and a linear search is cheap. *)
type kernel = int

let names = ref (Array.make 32 "")
let n_names = ref 0

let rec intern name k =
  if k = !n_names then begin
    if k = Array.length !names then
      names := Array.append !names (Array.make k "");
    !names.(k) <- name;
    n_names := k + 1;
    k
  end
  else if String.equal !names.(k) name then k
  else intern name (k + 1)

let kernel name = intern name 0

let kernel_name k = !names.(k)

(* Span event tag: bit 0 = kind (0 begin, 1 end), bits 1-31 = kernel,
   bits 32.. = iteration (signed; -1 before the first set_iteration). *)
let pack_tag ~iter ~kid ~kind = (iter lsl 32) lor (kid lsl 1) lor kind
let tag_iter tag = tag asr 32
let tag_kid tag = (tag lsr 1) land 0x7fff_ffff
let tag_kind tag = tag land 1

type t = {
  enabled : bool;
  t0 : int;
  mutable iter : int;
  (* open-span stack *)
  mutable fr_kernel : int array;
  mutable fr_start : int array;
  mutable fr_child : int array;
  mutable fr_depth : int;
  (* event log *)
  mutable ev_tag : int array;
  mutable ev_ns : int array;
  mutable ev_len : int;
  (* per-kernel aggregation, all in ns, indexed by kernel *)
  mutable calls : int array;
  mutable cum : int array;
  mutable self : int array;
  mutable mn : int array;
  mutable mx : int array;
  mutable cnt : (string * float ref) list;  (* reversed insertion order *)
  mutable gg : (string * float ref) list;  (* reversed insertion order *)
  gc0 : Gc.stat option;
}

let disabled =
  { enabled = false; t0 = 0; iter = -1; fr_kernel = [||]; fr_start = [||];
    fr_child = [||]; fr_depth = 0; ev_tag = [||]; ev_ns = [||]; ev_len = 0;
    calls = [||]; cum = [||]; self = [||]; mn = [||]; mx = [||]; cnt = [];
    gg = []; gc0 = None }

let create ?(gc = false) () =
  let n = !n_names in
  { enabled = true;
    t0 = tick ();
    iter = -1;
    fr_kernel = Array.make 64 0;
    fr_start = Array.make 64 0;
    fr_child = Array.make 64 0;
    fr_depth = 0;
    ev_tag = Array.make 4096 0;
    ev_ns = Array.make 4096 0;
    ev_len = 0;
    calls = Array.make n 0;
    cum = Array.make n 0;
    self = Array.make n 0;
    mn = Array.make n max_int;
    mx = Array.make n 0;
    cnt = [];
    gg = [];
    gc0 = (if gc then Some (Gc.quick_stat ()) else None) }

let enabled t = t.enabled
let set_iteration t i = if t.enabled then t.iter <- i

let grow ?(fill = 0) a len = Array.append a (Array.make len fill)

(* Room for kernel [kid] in the aggregates (a name interned after
   [create]). *)
let grow_aggregates t kid =
  let n = Array.length t.calls in
  let more = Int.max (kid + 1) (2 * n) - n in
  t.calls <- grow t.calls more;
  t.cum <- grow t.cum more;
  t.self <- grow t.self more;
  t.mn <- grow ~fill:max_int t.mn more;
  t.mx <- grow t.mx more

let push_event t tag ns =
  let n = Array.length t.ev_tag in
  if t.ev_len = n then begin
    t.ev_tag <- grow t.ev_tag n;
    t.ev_ns <- grow t.ev_ns n
  end;
  t.ev_tag.(t.ev_len) <- tag;
  t.ev_ns.(t.ev_len) <- ns;
  t.ev_len <- t.ev_len + 1

let start t kid =
  if t.enabled then begin
    let d = t.fr_depth in
    if d = Array.length t.fr_kernel then begin
      t.fr_kernel <- grow t.fr_kernel d;
      t.fr_start <- grow t.fr_start d;
      t.fr_child <- grow t.fr_child d
    end;
    let now = tick () in
    t.fr_kernel.(d) <- kid;
    t.fr_start.(d) <- now;
    t.fr_child.(d) <- 0;
    t.fr_depth <- d + 1;
    push_event t (pack_tag ~iter:t.iter ~kid ~kind:0) now
  end

let stop t =
  if t.enabled && t.fr_depth > 0 then begin
    let now = tick () in
    let d = t.fr_depth - 1 in
    t.fr_depth <- d;
    let kid = t.fr_kernel.(d) in
    if kid >= Array.length t.calls then grow_aggregates t kid;
    let elapsed = now - t.fr_start.(d) in
    t.calls.(kid) <- t.calls.(kid) + 1;
    t.cum.(kid) <- t.cum.(kid) + elapsed;
    t.self.(kid) <- t.self.(kid) + elapsed - t.fr_child.(d);
    if elapsed < t.mn.(kid) then t.mn.(kid) <- elapsed;
    if elapsed > t.mx.(kid) then t.mx.(kid) <- elapsed;
    if d > 0 then t.fr_child.(d - 1) <- t.fr_child.(d - 1) + elapsed;
    push_event t (pack_tag ~iter:t.iter ~kid ~kind:1) now
  end

let span t k f =
  if not t.enabled then f ()
  else begin
    start t k;
    match f () with
    | v -> stop t; v
    | exception e -> stop t; raise e
  end

let add t name v =
  if t.enabled then
    match List.assoc_opt name t.cnt with
    | Some r -> r := !r +. v
    | None -> t.cnt <- (name, ref v) :: t.cnt

let gauge t name v =
  if t.enabled then
    match List.assoc_opt name t.gg with
    | Some r -> r := v
    | None -> t.gg <- (name, ref v) :: t.gg

let gc_deltas t =
  match t.gc0 with
  | None -> []
  | Some s0 ->
    let s1 = Gc.quick_stat () in
    [ ("gc.minor_words", s1.Gc.minor_words -. s0.Gc.minor_words);
      ("gc.promoted_words", s1.Gc.promoted_words -. s0.Gc.promoted_words);
      ("gc.major_words", s1.Gc.major_words -. s0.Gc.major_words);
      ( "gc.minor_collections",
        float_of_int (s1.Gc.minor_collections - s0.Gc.minor_collections) );
      ( "gc.major_collections",
        float_of_int (s1.Gc.major_collections - s0.Gc.major_collections) ) ]

let counters t =
  List.rev_map (fun (n, r) -> (n, !r)) t.cnt
  @ List.rev_map (fun (n, r) -> (n, !r)) t.gg
  @ gc_deltas t

type stat = {
  st_kernel : kernel;
  st_calls : int;
  st_cum : float;
  st_self : float;
  st_min : float;
  st_max : float;
}

let sec ns = float_of_int ns *. 1e-9

let stats t =
  List.filter_map
    (fun kid ->
      if t.calls.(kid) = 0 then None
      else
        Some
          { st_kernel = kid; st_calls = t.calls.(kid); st_cum = sec t.cum.(kid);
            st_self = sec t.self.(kid); st_min = sec t.mn.(kid);
            st_max = sec t.mx.(kid) })
    (List.init (Array.length t.calls) Fun.id)

let pp_report ppf t =
  if not t.enabled then Format.fprintf ppf "profiling disabled@."
  else begin
    let sts = stats t in
    let core_run =
      List.find_opt (fun s -> kernel_name s.st_kernel = "core.run") sts
    in
    let total_self =
      List.fold_left (fun acc s -> acc +. s.st_self) 0. sts
    in
    let denom =
      match core_run with
      | Some s when s.st_cum > 0. -> s.st_cum
      | _ -> if total_self > 0. then total_self else 1.
    in
    Format.fprintf ppf "@[<v>per-kernel profile (monotonic clock)@,";
    Format.fprintf ppf "%-18s %8s %12s %12s %10s %10s %7s@," "kernel" "calls"
      "self(ms)" "cum(ms)" "min(ms)" "max(ms)" "self%";
    List.iter
      (fun s ->
        Format.fprintf ppf "%-18s %8d %12.3f %12.3f %10.3f %10.3f %6.1f%%@,"
          (kernel_name s.st_kernel) s.st_calls (s.st_self *. 1e3)
          (s.st_cum *. 1e3) (s.st_min *. 1e3) (s.st_max *. 1e3)
          (100. *. s.st_self /. denom))
      sts;
    (match core_run with
    | Some s when s.st_cum > 0. ->
      (* the time core.run spent inside nested spans; standalone kernels
         (final score, legalizer) do not count *)
      Format.fprintf ppf
        "coverage: %.1f%% of core.run wall time (%.3f ms) attributed to \
         kernel self times@,"
        (100. *. (s.st_cum -. s.st_self) /. s.st_cum) (s.st_cum *. 1e3)
    | _ -> ());
    let cs = counters t in
    if cs <> [] then begin
      Format.fprintf ppf "counters:@,";
      List.iter (fun (n, v) -> Format.fprintf ppf "  %-28s %.6g@," n v) cs
    end;
    Format.fprintf ppf "@]"
  end

let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let write_trace t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      if t.enabled then begin
        Printf.fprintf oc
          "{\"ev\":\"meta\",\"clock\":\"monotonic\",\"workers\":1,\
           \"kernels\":[%s]}\n"
          (String.concat ","
             (List.init !n_names (fun k ->
                  Printf.sprintf "\"%s\"" (kernel_name k))));
        for i = 0 to t.ev_len - 1 do
          let tag = t.ev_tag.(i) in
          Printf.fprintf oc
            "{\"ev\":\"%s\",\"k\":\"%s\",\"w\":0,\"iter\":%d,\"t\":%.9f}\n"
            (if tag_kind tag = 0 then "b" else "e")
            (kernel_name (tag_kid tag)) (tag_iter tag)
            (sec (t.ev_ns.(i) - t.t0))
        done;
        List.iter
          (fun (n, r) ->
            Printf.fprintf oc "{\"ev\":\"c\",\"k\":\"%s\",\"v\":%s}\n"
              (json_escape n) (json_float !r))
          (List.rev t.cnt);
        List.iter
          (fun (n, r) ->
            Printf.fprintf oc "{\"ev\":\"g\",\"k\":\"%s\",\"v\":%s}\n"
              (json_escape n) (json_float !r))
          (List.rev t.gg);
        List.iter
          (fun (n, v) ->
            Printf.fprintf oc "{\"ev\":\"g\",\"k\":\"%s\",\"v\":%s}\n"
              (json_escape n) (json_float v))
          (gc_deltas t)
      end)
