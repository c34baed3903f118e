(* Statistics, metric records, kernel tables and the JSONL ledger. *)

let median xs =
  match List.sort Float.compare xs with
  | [] -> nan
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile, [p] in (0, 100]. *)
let percentile p xs =
  match List.sort Float.compare xs with
  | [] -> nan
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

(* A named metric with its unit, in report order. *)
type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

(* Per-kernel totals, either from an in-process [Obs.t] or from a
   daemon's JSONL trace. *)
type kernel = { calls : int; self_s : float; cum_s : float }

type profile = {
  kernels : (string * kernel) list;
  counters : (string * float) list;
}

let empty_profile = { kernels = []; counters = [] }

let of_obs obs =
  { kernels =
      List.map
        (fun (s : Obs.stat) ->
          ( Obs.kernel_name s.Obs.st_kernel,
            { calls = s.Obs.st_calls; self_s = s.Obs.st_self; cum_s = s.Obs.st_cum } ))
        (Obs.stats obs);
    counters = Obs.counters obs }

let merge a b =
  let add (n, (k : kernel)) acc =
    match List.assoc_opt n acc with
    | Some (j : kernel) ->
      (n, { calls = j.calls + k.calls; self_s = j.self_s +. k.self_s;
            cum_s = j.cum_s +. k.cum_s })
      :: List.remove_assoc n acc
    | None -> (n, k) :: acc
  in
  let addc (n, v) acc =
    match List.assoc_opt n acc with
    | Some w -> (n, v +. w) :: List.remove_assoc n acc
    | None -> (n, v) :: acc
  in
  { kernels = List.rev (List.fold_right add b.kernels (List.rev a.kernels));
    counters = List.rev (List.fold_right addc b.counters (List.rev a.counters)) }

let kernel p name =
  Option.value (List.assoc_opt name p.kernels)
    ~default:{ calls = 0; self_s = 0.0; cum_s = 0.0 }

let self_ms p name = (kernel p name).self_s *. 1e3
let cum_ms p name = (kernel p name).cum_s *. 1e3
let calls p name = float_of_int (kernel p name).calls
let counter p name = Option.value (List.assoc_opt name p.counters) ~default:0.0

(* Share of core.run wall time attributed to nested kernels. *)
let coverage_pct p =
  let k = kernel p "core.run" in
  if k.cum_s > 0.0 then 100.0 *. (k.cum_s -. k.self_s) /. k.cum_s else 0.0

(* ---- reading an Obs JSONL trace ---- *)

(* Value of ["key":...] in one flat JSON object line. *)
let field line key =
  let pat = "\"" ^ key ^ "\":" in
  let lp = String.length pat and n = String.length line in
  let rec find i =
    if i + lp > n then None
    else if String.sub line i lp = pat then Some (i + lp)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some s ->
    let e = ref s in
    while !e < n && line.[!e] <> ',' && line.[!e] <> '}' do incr e done;
    let v = String.trim (String.sub line s (!e - s)) in
    let l = String.length v in
    Some (if l >= 2 && v.[0] = '"' then String.sub v 1 (l - 2) else v)

(* Rebuild per-kernel calls / cum / self from span begin/end events
   (self = duration minus the time covered by nested spans), plus
   counters and gauges. *)
let of_trace path =
  let tbl = Hashtbl.create 32 and order = ref [] in
  let stacks = Hashtbl.create 4 in
  let counters = ref [] in
  let bump name f =
    let k =
      match Hashtbl.find_opt tbl name with
      | Some k -> k
      | None ->
        order := name :: !order;
        { calls = 0; self_s = 0.0; cum_s = 0.0 }
    in
    Hashtbl.replace tbl name (f k)
  in
  In_channel.with_open_text path (fun ic ->
    In_channel.fold_lines
      (fun () line ->
        let get k = Option.value (field line k) ~default:"" in
        match get "ev" with
        | "b" ->
          let w = get "w" in
          let st = Option.value (Hashtbl.find_opt stacks w) ~default:[] in
          Hashtbl.replace stacks w ((get "k", float_of_string (get "t"), ref 0.0) :: st)
        | "e" ->
          let w = get "w" in
          (match Hashtbl.find_opt stacks w with
           | Some ((name, t0, child) :: rest) ->
             let dur = float_of_string (get "t") -. t0 in
             bump name (fun k ->
               { calls = k.calls + 1; cum_s = k.cum_s +. dur;
                 self_s = k.self_s +. dur -. !child });
             (match rest with (_, _, parent) :: _ -> parent := !parent +. dur | [] -> ());
             Hashtbl.replace stacks w rest
           | _ -> ())
        | "c" | "g" -> counters := (get "k", float_of_string (get "v")) :: !counters
        | _ -> ())
      () ic);
  { kernels = List.rev_map (fun n -> (n, Hashtbl.find tbl n)) !order;
    counters = List.rev !counters }

(* ---- JSON output ---- *)

let json_float v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let json_string s = Printf.sprintf "%S" s

(* The result line: the last line of the benchmark's standard output. *)
let result_line ~correct ~attempted ~failed metrics =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string m.name)
              (json_float m.value) (json_string m.unit_))
          metrics))

(* The per-workload JSONL ledger: stage spans, the program's kernel
   table and counters, then the metrics.  The meta line compares the
   measured-phase spans (all but "setup.*") with [wall_s]. *)
type span = { sp_name : string; sp_t0 : float; sp_t1 : float; sp_round : int }

let write path ~workload ~spans ~wall_s ~profile ~metrics =
  Out_channel.with_open_text path (fun oc ->
    let line fmt = Printf.kfprintf (fun oc -> output_char oc '\n') oc fmt in
    let stage_sum =
      List.fold_left
        (fun acc s ->
          if String.starts_with ~prefix:"setup." s.sp_name then acc
          else acc +. (s.sp_t1 -. s.sp_t0))
        0.0 spans
    in
    line "{\"ev\":\"meta\",\"workload\":%s,\"wall_s\":%s,\"stage_sum_s\":%s,\"stage_sum_pct\":%s}"
      (json_string workload) (json_float wall_s) (json_float stage_sum)
      (json_float (100.0 *. stage_sum /. wall_s));
    List.iter
      (fun s ->
        line "{\"ev\":\"span\",\"name\":%s,\"round\":%d,\"t0\":%s,\"t1\":%s}"
          (json_string s.sp_name) s.sp_round (json_float s.sp_t0) (json_float s.sp_t1))
      spans;
    List.iter
      (fun (n, k) ->
        line "{\"ev\":\"kernel\",\"name\":%s,\"calls\":%d,\"self_ms\":%s,\"cum_ms\":%s}"
          (json_string n) k.calls (json_float (k.self_s *. 1e3)) (json_float (k.cum_s *. 1e3)))
      profile.kernels;
    List.iter
      (fun (n, v) ->
        line "{\"ev\":\"counter\",\"name\":%s,\"value\":%s}" (json_string n) (json_float v))
      profile.counters;
    List.iter
      (fun m ->
        line "{\"ev\":\"metric\",\"name\":%s,\"value\":%s,\"unit\":%s}" (json_string m.name)
          (json_float m.value) (json_string m.unit_))
      metrics)
