(* Bottom-up first-choice clustering and position prolongation for the
   multilevel placement V-cycle.  See cluster.mli for the model.

   Everything here is sequential and visits cells/nets in ascending id
   order with lowest-id tie-breaks, so coarsening is bit-identical at
   any domain count by construction.  The scoring scratch is two flat
   arrays (sparse accumulate + touched list), so a pass allocates
   nothing per cell. *)

module N = Netlist

type level = {
  fine : N.t;
  coarse : N.t;
  parent : int array;
}

(* A cheap avalanche of the cell id, mapped to [0, 1). *)
let hash_float i salt =
  let h = ref ((i * 2654435761) + salt) in
  h := !h lxor (!h lsr 13);
  h := !h * 1274126177;
  h := !h lxor (!h lsr 16);
  float_of_int (!h land 0xFFFF) /. 65536.0

(* Union-find over fine cell ids; the representative is always the
   smallest member id (kept by unioning high into low), which is what
   makes tie-breaks and coarse-cell numbering deterministic. *)
let rec find uf i =
  let p = uf.(i) in
  if p = i then i
  else begin
    let r = find uf p in
    uf.(i) <- r;
    r
  end

let coarsen ?(cluster_ratio = 4.0) ?(max_net_degree = 16)
    ?(obs = Obs.disabled) nl =
  let cells = nl.N.cells and nets = nl.N.nets and pins = nl.N.pins in
  let n = Array.length cells in
  let movable i = not cells.(i).N.fixed in
  let nmov = ref 0 in
  let total_area = ref 0.0 in
  for i = 0 to n - 1 do
    if movable i then begin
      incr nmov;
      total_area := !total_area +. (cells.(i).N.width *. cells.(i).N.height)
    end
  done;
  let nmov = !nmov in
  if nmov < 4 then None
  else begin
    let cap =
      2.0 *. Float.max 1.0 cluster_ratio *. !total_area /. float_of_int nmov
    in
    let target =
      max 1
        (int_of_float
           (Float.ceil (float_of_int nmov /. Float.max 1.0 cluster_ratio)))
    in
    let uf = Array.init n Fun.id in
    let area =
      Array.map (fun (c : N.cell) -> c.N.width *. c.N.height) cells
    in
    (* net eligibility + clique-model weight 1/(d-1) *)
    let net_w =
      Array.map
        (fun (t : N.net) ->
          let d = Array.length t.N.net_pins in
          if d >= 2 && d <= max_net_degree then 1.0 /. float_of_int (d - 1)
          else 0.0)
        nets
    in
    (* sparse scoring scratch *)
    let score = Array.make n 0.0 in
    let touched = ref (Array.make 64 0) in
    let nclusters = ref nmov in
    let max_pass =
      2 + int_of_float (Float.ceil (Float.log (Float.max 2.0 cluster_ratio)
                                    /. Float.log 2.0))
    in
    let pass = ref 0 in
    let progressing = ref true in
    while !progressing && !nclusters > target && !pass < max_pass do
      let merges = ref 0 in
      for i = 0 to n - 1 do
        if movable i && !nclusters > target then begin
          let ri = find uf i in
          let nt = ref 0 in
          let cpins = cells.(i).N.cell_pins in
          for pi = 0 to Array.length cpins - 1 do
            let t = pins.(cpins.(pi)).N.net in
            if t >= 0 && net_w.(t) > 0.0 then begin
              let w = net_w.(t) in
              let npins = nets.(t).N.net_pins in
              for qi = 0 to Array.length npins - 1 do
                let j = pins.(npins.(qi)).N.cell in
                if j <> i && movable j then begin
                  let rj = find uf j in
                  if rj <> ri then begin
                    if score.(rj) = 0.0 then begin
                      if !nt = Array.length !touched then
                        touched := Array.append !touched
                            (Array.make !nt 0);
                      !touched.(!nt) <- rj;
                      incr nt
                    end;
                    score.(rj) <- score.(rj) +. w
                  end
                end
              done
            end
          done;
          (* strongest affordable neighbour; ties toward the lowest id *)
          let best = ref (-1) and best_s = ref 0.0 in
          for k = 0 to !nt - 1 do
            let rj = !touched.(k) in
            let s = score.(rj) in
            if area.(ri) +. area.(rj) <= cap
               && (s > !best_s || (s = !best_s && !best >= 0 && rj < !best))
            then begin
              best := rj;
              best_s := s
            end
          done;
          if !best >= 0 then begin
            let rj = !best in
            let lo = min ri rj and hi = max ri rj in
            uf.(hi) <- lo;
            area.(lo) <- area.(lo) +. area.(hi);
            incr merges;
            decr nclusters
          end;
          for k = 0 to !nt - 1 do
            score.(!touched.(k)) <- 0.0
          done
        end
      done;
      if !merges = 0 then progressing := false;
      incr pass
    done;
    if float_of_int !nclusters > 0.9 *. float_of_int nmov then None
    else begin
      (* area-weighted centroid of every cluster, for the coarse seed
         position (used when a finer level interpolated into this one) *)
      let sx = Array.make n 0.0
      and sy = Array.make n 0.0
      and sa = Array.make n 0.0 in
      for i = 0 to n - 1 do
        if movable i then begin
          let r = find uf i in
          let c = cells.(i) in
          let a = Float.max 1e-12 (c.N.width *. c.N.height) in
          sx.(r) <- sx.(r) +. (a *. c.N.x);
          sy.(r) <- sy.(r) +. (a *. c.N.y);
          sa.(r) <- sa.(r) +. a
        end
      done;
      let b =
        N.Builder.create ~region:nl.N.region ~row_height:nl.N.row_height
          (nl.N.design_name ^ "+c")
      in
      let parent = Array.make n (-1) in
      (* Coarse cells in ascending fine-id order: fixed cells pass
         through 1:1; a cluster is emitted at its representative (the
         smallest member id, hence before every other member). *)
      for i = 0 to n - 1 do
        let c = cells.(i) in
        if c.N.fixed then
          parent.(i) <-
            N.Builder.add_cell b
              ~name:(Printf.sprintf "k%d" i)
              ~lib_cell:(-1) ~width:c.N.width ~height:c.N.height ~x:c.N.x
              ~y:c.N.y ~fixed:true ()
        else begin
          let r = find uf i in
          if r = i then begin
            let side = Float.sqrt sa.(i) in
            parent.(i) <-
              N.Builder.add_cell b
                ~name:(Printf.sprintf "k%d" i)
                ~lib_cell:(-1) ~width:side ~height:side
                ~x:(sx.(i) /. sa.(i)) ~y:(sy.(i) /. sa.(i)) ()
          end
          else parent.(i) <- parent.(r)
        end
      done;
      (* Net contraction: one coarse pin per (net, coarse cell), driver
         direction iff the coarse cell holds the fine driver; nets
         collapsing into one coarse cell vanish. *)
      let ncoarse = ref 0 in
      for i = 0 to n - 1 do
        if parent.(i) >= !ncoarse then ncoarse := parent.(i) + 1
      done;
      let seen = Array.make !ncoarse (-1) in
      let members = ref (Array.make 64 0) in
      let kept_nets = ref 0 in
      Array.iter
        (fun (t : N.net) ->
          let nm = ref 0 in
          Array.iter
            (fun p ->
              let pc = parent.(pins.(p).N.cell) in
              if seen.(pc) <> t.N.net_id then begin
                seen.(pc) <- t.N.net_id;
                if !nm = Array.length !members then
                  members := Array.append !members (Array.make !nm 0);
                !members.(!nm) <- pc;
                incr nm
              end)
            t.N.net_pins;
          if !nm >= 2 then begin
            let driver_pc =
              match N.net_driver nl t.N.net_id with
              | Some p -> parent.(pins.(p).N.cell)
              | None -> -1
            in
            let coarse_pins = ref [] in
            for k = !nm - 1 downto 0 do
              let pc = !members.(k) in
              let dir = if pc = driver_pc then N.Output else N.Input in
              coarse_pins :=
                N.Builder.add_pin b ~cell:pc
                  ~name:(Printf.sprintf "p%d_%d" t.N.net_id pc)
                  ~direction:dir ()
                :: !coarse_pins
            done;
            ignore (N.Builder.add_net b ~name:t.N.net_name ~pins:!coarse_pins);
            incr kept_nets
          end)
        nets;
      let coarse = N.Builder.freeze b in
      Obs.add obs "cluster.merged_cells" (float_of_int (nmov - !nclusters));
      Obs.add obs "cluster.dropped_nets"
        (float_of_int (Array.length nets - !kept_nets));
      Some { fine = nl; coarse; parent }
    end
  end

let k_coarsen = Obs.kernel "cluster.coarsen"

let build ?(levels = 2) ?(cluster_ratio = 4.0) ?(max_net_degree = 16)
    ?(min_cells = 1000) ?(obs = Obs.disabled) nl =
  Obs.span obs k_coarsen (fun () ->
    let count_movable d =
      Array.fold_left
        (fun acc (c : N.cell) -> if c.N.fixed then acc else acc + 1)
        0 d.N.cells
    in
    let rec go acc cur k =
      if k <= 0 || count_movable cur <= min_cells then List.rev acc
      else
        match coarsen ~cluster_ratio ~max_net_degree ~obs cur with
        | None -> List.rev acc
        | Some lvl -> go (lvl :: acc) lvl.coarse (k - 1)
    in
    let lvls = go [] nl (max 0 levels) in
    Obs.add obs "cluster.levels" (float_of_int (List.length lvls));
    (match List.rev lvls with
    | last :: _ ->
      Obs.gauge obs "cluster.coarse_cells"
        (float_of_int (count_movable last.coarse))
    | [] -> ());
    lvls)

let k_interp = Obs.kernel "cluster.interp"

let interpolate ?(obs = Obs.disabled) lvl =
  Obs.span obs k_interp (fun () ->
    let fine = lvl.fine and coarse = lvl.coarse in
    let region = fine.N.region in
    let n = Array.length fine.N.cells in
    let nc = Array.length coarse.N.cells in
    let nnets = Array.length fine.N.nets in
    (* Terminal propagation: per fine net, the sum of the parent
       clusters' placed positions over its pins.  A member's offset
       inside its cluster then points toward the mean position of its
       nets' other endpoints — the finest refine starts from a locally
       wirelength-aware ordering instead of a random scatter. *)
    let nsx = Array.make nnets 0.0
    and nsy = Array.make nnets 0.0
    and ncnt = Array.make nnets 0 in
    for t = 0 to nnets - 1 do
      let npins = fine.N.nets.(t).N.net_pins in
      for q = 0 to Array.length npins - 1 do
        let cc = coarse.N.cells.(lvl.parent.(fine.N.pins.(npins.(q)).N.cell)) in
        nsx.(t) <- nsx.(t) +. cc.N.x;
        nsy.(t) <- nsy.(t) +. cc.N.y;
        ncnt.(t) <- ncnt.(t) + 1
      done
    done;
    let ox = Array.make n 0.0 and oy = Array.make n 0.0 in
    for i = 0 to n - 1 do
      let c = fine.N.cells.(i) in
      if not c.N.fixed then begin
        let p = lvl.parent.(i) in
        let cc = coarse.N.cells.(p) in
        (* clique-weighted mean pull of this cell's nets *)
        let px = ref 0.0 and py = ref 0.0 and pw = ref 0.0 in
        let cpins = c.N.cell_pins in
        for q = 0 to Array.length cpins - 1 do
          let t = fine.N.pins.(cpins.(q)).N.net in
          if t >= 0 && ncnt.(t) >= 2 then begin
            let others = float_of_int (ncnt.(t) - 1) in
            let w = 1.0 /. others in
            px := !px +. (w *. ((nsx.(t) -. cc.N.x) /. others));
            py := !py +. (w *. ((nsy.(t) -. cc.N.y) /. others));
            pw := !pw +. w
          end
        done;
        let hw = cc.N.width /. 2.0 and hh = cc.N.height /. 2.0 in
        let dx, dy =
          if !pw > 0.0 then
            ( Geometry.clamp ~lo:(-.hw) ~hi:hw ((!px /. !pw) -. cc.N.x),
              Geometry.clamp ~lo:(-.hh) ~hi:hh ((!py /. !pw) -. cc.N.y) )
          else (0.0, 0.0)
        in
        (* small jitter on top so members pulled the same way separate *)
        ox.(i) <- dx +. (0.25 *. (hash_float i 101 -. 0.5) *. cc.N.width);
        oy.(i) <- dy +. (0.25 *. (hash_float i 137 -. 0.5) *. cc.N.height)
      end
    done;
    (* area-weighted mean offset per cluster, so subtracting it puts
       each cluster's area centroid exactly on the cluster center *)
    let mx = Array.make nc 0.0
    and my = Array.make nc 0.0
    and ma = Array.make nc 0.0 in
    for i = 0 to n - 1 do
      let c = fine.N.cells.(i) in
      if not c.N.fixed then begin
        let p = lvl.parent.(i) in
        let a = Float.max 1e-12 (c.N.width *. c.N.height) in
        mx.(p) <- mx.(p) +. (a *. ox.(i));
        my.(p) <- my.(p) +. (a *. oy.(i));
        ma.(p) <- ma.(p) +. a
      end
    done;
    for i = 0 to n - 1 do
      let c = fine.N.cells.(i) in
      if not c.N.fixed then begin
        let p = lvl.parent.(i) in
        let cc = coarse.N.cells.(p) in
        let x = cc.N.x +. ox.(i) -. (mx.(p) /. ma.(p)) in
        let y = cc.N.y +. oy.(i) -. (my.(p) /. ma.(p)) in
        let hw = c.N.width /. 2.0 and hh = c.N.height /. 2.0 in
        c.N.x <-
          Geometry.clamp ~lo:(region.Geometry.Rect.lx +. hw)
            ~hi:(region.Geometry.Rect.hx -. hw) x;
        c.N.y <-
          Geometry.clamp ~lo:(region.Geometry.Rect.ly +. hh)
            ~hi:(region.Geometry.Rect.hy -. hh) y
      end
    done)
