open Merlin_geometry
open Merlin_curves

(* One join operand's coordinates, read once per split, and dom (see
   [load_columns]); grow-only. *)
type columns = {
  mutable req : floatarray;
  mutable load : floatarray;
  mutable area : floatarray;
  mutable dom : int array;
}

let new_columns () =
  { req = Float.Array.create 0; load = Float.Array.create 0;
    area = Float.Array.create 0; dom = [||] }

(* Scratch shared by every DP of a context.  [bld] is the one builder
   of every kernel batch — joins, buffer closures and extend-to-root
   batches (pull and sub-terminal bases) — and it owns its
   sort/staircase/selection scratch (see Curve.Builder).  Its payloads
   are int codes naming candidates, and each batch's build_map decodes
   the codes of the points it keeps, reading the batch's operands from
   [bases] (see [part_of]) and the join operands [lefts] and [rights],
   or from [open_ix] (closures).  No two
   batches interleave: each is built before the next one opens, and the
   join pre-loop in [run_in] fills every relocation memo before the join
   batch opens, so [pull] never runs inside a batch and the operands
   recorded here always belong to the open one.  A cleared builder is
   observationally a fresh one, so sharing it across runs changes no
   result.  [cost] is the flat cost record threaded through every cost
   computation (see [run_in]), and the rest is the pre-filters'
   grow-only scratch (see [join_product] and [close_product]). *)
type scratch = {
  bld : int Curve.Builder.b;
  cost : Curve.Builder.cost;
  mutable lefts : Build.t Curve.t array;
  mutable rights : Build.t Curve.t array;
  mutable bases : int array;
  left_cols : columns;
  right_cols : columns;
  mutable open_ix : int array;
  mutable trial_req : floatarray;
  mutable trial_load : floatarray;
  mutable trial_area : floatarray;
  mutable trial_beaten : bool array;
}

let new_scratch () =
  { bld = Curve.Builder.create ();
    cost = Curve.Builder.new_cost ();
    lefts = [||];
    rights = [||];
    bases = [||];
    left_cols = new_columns ();
    right_cols = new_columns ();
    open_ix = [||];
    trial_req = Float.Array.create 0;
    trial_load = Float.Array.create 0;
    trial_area = Float.Array.create 0;
    trial_beaten = [||] }

(* A computed cell: curves at the cell's own active roots plus a memo of
   lazy relocations to other roots — the paper's d(p,p') move applied on
   demand instead of as a k^2 sweep. *)
type cell = {
  computed : Build.t Curve.t array;
  memo : Build.t Curve.t option array;
}

let same_ints (a : int array) (b : int array) =
  Int.equal (Array.length a) (Array.length b) && Array.for_all2 Int.equal a b

(* Memoised cells by their terminals' ids; each run of terminals holds
   one cell per active set it was computed under.  The hash reads every
   id: Hashtbl.hash stops after the first few. *)
module Runs = Hashtbl.Make (struct
    type t = int array

    let equal = same_ints
    let hash key = Hashtbl.hash_param 64 64 key
  end)

(* A run's knobs, its scratch and the cell table.  Every cell's content
   is a function of its key and these knobs, which is why they are fixed
   when the context is made. *)
type context = {
  tech : Merlin_tech.Tech.t;
  subset : Merlin_tech.Buffer_lib.t;
  max_curve : int;
  quant : float * float * float;
  bbox_slack : float;
  candidates : Point.t array;
  scratch : scratch;
  cells : (int array * cell) list Runs.t;
}

(* Sub-group ids are unique in the process, so a sub-group can never
   hit another's cells, whichever context it is used with. *)
let next_sub = Atomic.make 0

type sub = { id : int; curves : Build.t Curve.t array }

type terminal =
  | Sink_term of Merlin_net.Sink.t
  | Sub_term of sub

let context ~tech ~buffers ~trials ~max_curve ~quant ~bbox_slack ~candidates
    () =
  { tech; subset = Merlin_tech.Buffer_lib.subset buffers ~trials; max_curve;
    quant; bbox_slack; candidates; scratch = new_scratch ();
    cells = Runs.create 16 }

let sub curves = { id = Atomic.fetch_and_add next_sub 1; curves }

(* Key ids: sinks even, sub-groups odd, so the two never collide. *)
let terminal_key = function
  | Sink_term s -> 2 * s.Merlin_net.Sink.id
  | Sub_term sub -> (2 * sub.id) + 1

(* Bounding box of the points a terminal can occupy. *)
let terminal_box candidates = function
  | Sink_term s -> Rect.make s.Merlin_net.Sink.pt s.Merlin_net.Sink.pt
  | Sub_term sub ->
    let pts = ref [] in
    Array.iteri
      (fun p c -> if not (Curve.is_empty c) then pts := candidates.(p) :: !pts)
      sub.curves;
    (match !pts with
     | [] -> invalid_arg "Star_ptree.terminal_box: sub-terminal with empty curves"
     | pts -> Rect.bounding_box pts)

(* Operation counters used by the diagnostics in bench/ and by tuning
   sessions; atomic so concurrent flows under the execution engine do
   not lose increments, and still free next to the curve work. *)
let n_runs = Atomic.make 0
let n_join_adds = Atomic.make 0
let n_close_adds = Atomic.make 0
let n_pull_adds = Atomic.make 0
let n_base_adds = Atomic.make 0
let n_cells = Atomic.make 0
let n_pulls = Atomic.make 0
let n_dropped = Atomic.make 0

(* Candidates the exact pre-filters drop before they are pushed: join
   pairs and buffer trials.  The [_adds] counters count pushes, so
   pushes plus filtered candidates is the whole product. *)
let n_join_filtered = Atomic.make 0
let n_close_filtered = Atomic.make 0

(* Bytes-moved telemetry: [allocated_bytes] deltas around each kernel
   entry point (join, buffer closure, pull, base), plus join-build and
   survivor counts so bytes-per-join and mean frontier width fall out of
   a single counter snapshot.  The GC counters are per-domain, so a
   delta taken inside one task is that task's own allocation; the atomic
   accumulation makes the totals safe under the execution engine. *)
let n_joins = Atomic.make 0
let n_join_survivors = Atomic.make 0
let bytes_join = Atomic.make 0
let bytes_close = Atomic.make 0
let bytes_pull = Atomic.make 0
let bytes_base = Atomic.make 0

let drop ctx terminals =
  let run = Array.map terminal_key terminals in
  Option.iter
    (fun held ->
       ignore (Atomic.fetch_and_add n_dropped (List.length held));
       Runs.remove ctx.cells run)
    (Runs.find_opt ctx.cells run)

(* Bytes this domain has allocated so far: the words allocated on the
   minor heap plus those allocated directly on the major heap (major
   words less the promoted ones, which were counted when they were
   allocated young).  Unlike [Gc.allocated_bytes], which on OCaml 5.1
   jumps when a minor collection promotes, the sum stays put across a
   collection, so consecutive windows add up to the whole. *)
let allocated_bytes () =
  let _, promoted, major = Gc.counters () in
  (Gc.minor_words () +. (major -. promoted))
  *. float_of_int (Sys.word_size / 8)

let add_bytes counter before =
  ignore
    (Atomic.fetch_and_add counter
       (int_of_float (allocated_bytes () -. before)))

(* Quantise a cost record in place to the push grids: the same
   floor/ceil expressions as Solution.quantise, so bit-identical. *)
let quantise_cost (req_grid, load_grid, area_grid) (c : Curve.Builder.cost) =
  if req_grid <> 0.0 then
    c.Curve.Builder.creq <- floor (c.Curve.Builder.creq /. req_grid) *. req_grid;
  if load_grid <> 0.0 then
    c.Curve.Builder.cload <-
      ceil (c.Curve.Builder.cload /. load_grid) *. load_grid;
  if area_grid <> 0.0 then
    c.Curve.Builder.carea <-
      ceil (c.Curve.Builder.carea /. area_grid) *. area_grid

let grow_ints a n = if Array.length a >= n then a else Array.make (2 * n) 0

(* The exact pre-filters (DESIGN.md §9 "Exact candidate pre-filters").
   A candidate may be left out of a batch when the full batch holds
   another candidate that the builder sorts before it and whose
   quantised cost weakly dominates it: the staircase sweep would drop
   it, and dropping it early moves no other point in or out of the
   frontier, so the built curve is the same down to payloads and order.

   [load_columns cols c] reads [c]'s coordinates into [cols] and sets
   [cols.dom.(i)] to the position of the highest-required-time point of
   [c] whose (load, area) is at most point i's in both, or -1.  Such a
   point sits after i: a curve is an antichain in req-descending order,
   so an earlier one would dominate i outright, and for the same reason
   it beats i strictly in load or area. *)
let load_columns cols c =
  let n = Curve.size c in
  if Float.Array.length cols.req < n then begin
    cols.req <- Float.Array.create (2 * n);
    cols.load <- Float.Array.create (2 * n);
    cols.area <- Float.Array.create (2 * n)
  end;
  cols.dom <- grow_ints cols.dom n;
  let { req; load; area; dom } = cols in
  for i = 0 to n - 1 do
    let s = Curve.get c i in
    Float.Array.set req i s.Solution.req;
    Float.Array.set load i s.Solution.load;
    Float.Array.set area i s.Solution.area
  done;
  for i = 0 to n - 1 do
    let d = ref (-1) and j = ref (i + 1) in
    while !d < 0 && !j < n do
      if Float.Array.get load !j <= Float.Array.get load i
         && Float.Array.get area !j <= Float.Array.get area i
      then d := !j;
      incr j
    done;
    dom.(i) <- !d
  done

(* Whether joining x = [xs.(i)] with y = [ys.(j)] and joining x' =
   [xs.(i')] with y cost differently once quantised, given that both
   joins have the same req.  Their loads are x.load + y.load against
   x'.load + y.load, and likewise for area: the float expressions of
   Build.join_cost_into (float addition is commutative, so the operand
   order does not matter), rounded up as in [quantise_cost]. *)
let rival_differs (_, load_grid, area_grid) xs i i' ys j =
  let load = Float.Array.get xs.load i +. Float.Array.get ys.load j
  and load' = Float.Array.get xs.load i' +. Float.Array.get ys.load j
  and area = Float.Array.get xs.area i +. Float.Array.get ys.area j
  and area' = Float.Array.get xs.area i' +. Float.Array.get ys.area j in
  (if load_grid <> 0.0 then
     not
       (Float.equal
          (ceil (load /. load_grid) *. load_grid)
          (ceil (load' /. load_grid) *. load_grid))
   else not (Float.equal load load'))
  ||
  if area_grid <> 0.0 then
    not
      (Float.equal
         (ceil (area /. area_grid) *. area_grid)
         (ceil (area' /. area_grid) *. area_grid))
  else not (Float.equal area area')

(* The join product of one split: push every pair (a, b) of a = [left]
   at ia and b = [right] at ib, named by the code [base + ia * |right| +
   ib] (its offset in the batch's product when [base] is the split's),
   except the pairs another pair of the same product provably beats.
   Let a.req <= b.req, so the pair's req is a's, and d = dom(b) with
   d.req >= a.req: (a, d) has the same req and no more load or area,
   and quantising is monotone, so it weakly dominates (a, b).  If the
   quantised costs differ, the sweep puts (a, d) first and drops (a, b).
   If they tie, it keeps the earlier push, which is (a, b) (d sits after
   b in its curve), so (a, b) is pushed.  The case b.req < a.req is the
   same with d = dom(a).  A dropped pair costs only its comparison; the
   pushed ones go through Build.join_cost_into like every other
   candidate. *)
let join_product scratch ~quant bld ~base left right =
  let nl = Curve.size left and nr = Curve.size right in
  let lc = scratch.left_cols and rc = scratch.right_cols in
  load_columns lc left;
  load_columns rc right;
  let cost = scratch.cost in
  let pushed = ref 0 in
  for ia = 0 to nl - 1 do
    let a = Curve.get left ia in
    let ra = Float.Array.get lc.req ia in
    for ib = 0 to nr - 1 do
      let rb = Float.Array.get rc.req ib in
      let beaten =
        if ra <= rb then begin
          let k = rc.dom.(ib) in
          k >= 0
          && Float.Array.get rc.req k >= ra
          && rival_differs quant rc ib k lc ia
        end
        else begin
          let k = lc.dom.(ia) in
          k >= 0
          && Float.Array.get lc.req k >= rb
          && rival_differs quant lc ia k rc ib
        end
      in
      if not beaten then begin
        incr pushed;
        Build.join_cost_into cost a (Curve.get right ib);
        quantise_cost quant cost;
        Curve.Builder.push_cost bld cost (base + (ia * nr) + ib)
      end
    done
  done;
  ignore (Atomic.fetch_and_add n_join_adds !pushed);
  ignore (Atomic.fetch_and_add n_join_filtered ((nl * nr) - !pushed))

(* The buffer closure of [curve]: push every solution as it is, then
   every (solution, buffer) trial on an unbuffered root, in that order
   — so equal-cost ties resolve exactly as they did when the candidates
   were added one by one into the existing curve — except the trials
   another trial of the same buffer provably beats.  Solution i is
   named by the code i, and the trial of buffer bi on the oi-th open
   root by n + oi * nb + bi (see [close_data]).  Re-buffering an
   existing buffer (a same-point repeater) is dominated by picking the
   right single size from the graded library, so it is never tried.
   All trials of one buffer have its input capacitance as their load,
   so trial i loses to trial k when k's quantised req is at least and
   its area at most i's, and k differs or was pushed first (k < i).
   Each trial is costed once, into the scratch columns (open root oi,
   buffer bi at oi * nb + bi), and pushed from there through [cost]:
   dune's dev profile compiles with -opaque, so Curve.Builder.push is a
   real call here and would box its float arguments. *)
let close_product scratch ~quant ~subset bld curve =
  let n = Curve.size curve and nb = Array.length subset in
  for i = 0 to n - 1 do
    let sol = Curve.get curve i in
    Curve.Builder.push bld ~req:sol.Solution.req ~load:sol.Solution.load
      ~area:sol.Solution.area i
  done;
  scratch.open_ix <- grow_ints scratch.open_ix n;
  let open_ix = scratch.open_ix and n_open = ref 0 in
  for i = 0 to n - 1 do
    match (Curve.get curve i).Solution.data.Build.tree with
    | Merlin_rtree.Rtree.Node { buffer = Some _; _ } -> ()
    | Merlin_rtree.Rtree.Leaf _
    | Merlin_rtree.Rtree.Node { buffer = None; _ } ->
      open_ix.(!n_open) <- i;
      incr n_open
  done;
  let n_open = !n_open in
  let nt = n_open * nb in
  if Float.Array.length scratch.trial_req < nt then begin
    scratch.trial_req <- Float.Array.create (2 * nt);
    scratch.trial_load <- Float.Array.create (2 * nt);
    scratch.trial_area <- Float.Array.create (2 * nt);
    scratch.trial_beaten <- Array.make (2 * nt) false
  end;
  let treq = scratch.trial_req and tload = scratch.trial_load
  and tarea = scratch.trial_area and beaten = scratch.trial_beaten in
  let cost = scratch.cost in
  for oi = 0 to n_open - 1 do
    let sol = Curve.get curve open_ix.(oi) in
    for bi = 0 to nb - 1 do
      Build.add_root_buffer_cost_into cost subset.(bi) sol;
      quantise_cost quant cost;
      let t = (oi * nb) + bi in
      Float.Array.set treq t cost.Curve.Builder.creq;
      Float.Array.set tload t cost.Curve.Builder.cload;
      Float.Array.set tarea t cost.Curve.Builder.carea
    done
  done;
  for bi = 0 to nb - 1 do
    for oi = 0 to n_open - 1 do
      let t = (oi * nb) + bi in
      let r = Float.Array.get treq t and a = Float.Array.get tarea t in
      let lost = ref false and ok = ref 0 in
      while (not !lost) && !ok < n_open do
        let tk = (!ok * nb) + bi in
        let rk = Float.Array.get treq tk and ak = Float.Array.get tarea tk in
        if rk >= r && ak <= a && (rk > r || ak < a || !ok < oi) then
          lost := true;
        incr ok
      done;
      beaten.(t) <- !lost
    done
  done;
  let pushed = ref 0 in
  for t = 0 to nt - 1 do
    if not beaten.(t) then begin
      incr pushed;
      cost.Curve.Builder.creq <- Float.Array.get treq t;
      cost.Curve.Builder.cload <- Float.Array.get tload t;
      cost.Curve.Builder.carea <- Float.Array.get tarea t;
      Curve.Builder.push_cost bld cost (n + t)
    end
  done;
  ignore (Atomic.fetch_and_add n_close_adds !pushed);
  ignore (Atomic.fetch_and_add n_close_filtered (nt - !pushed))

(* The tree and members of closure candidate [code] of [curve], as
   [close_product] named it; [open_ix] still holds that batch's open
   roots. *)
let close_data scratch ~subset curve code =
  let n = Curve.size curve in
  if code < n then (Curve.get curve code).Solution.data
  else begin
    let nb = Array.length subset and t = code - n in
    Build.add_root_buffer_data subset.(t mod nb)
      (Curve.get curve scratch.open_ix.(t / nb))
  end

(* Room for the [n] splits of a join batch: their operands and n + 1
   bases. *)
let ensure_splits scratch n =
  if Array.length scratch.lefts < n then begin
    scratch.lefts <- Array.make (2 * n) Curve.empty;
    scratch.rights <- Array.make (2 * n) Curve.empty
  end;
  scratch.bases <- grow_ints scratch.bases (n + 1)

(* The part of the open batch that candidate [code] belongs to: the last
   of the [n] parts whose base is at most [code] ([bases.(n)] is the
   batch's product size, and an empty part, which holds no code, shares
   its base with the next). *)
let part_of scratch n code =
  let bases = scratch.bases in
  let lo = ref 0 and hi = ref n in
  while !hi - !lo > 1 do
    let mid = (!lo + !hi) / 2 in
    if bases.(mid) <= code then lo := mid else hi := mid
  done;
  !lo

let run_in ctx ~active ~terminals =
  let { tech; subset; max_curve; quant; bbox_slack; candidates; scratch;
        cells } = ctx in
  let m = Array.length terminals and k = Array.length candidates in
  if m = 0 then invalid_arg "Star_ptree.run_in: no terminals";
  if k = 0 then invalid_arg "Star_ptree.run_in: no candidates";
  if Array.length active = 0 then
    invalid_arg "Star_ptree.run_in: no active candidates";
  Atomic.incr n_runs;
  let term_ids = Array.map terminal_key terminals in
  let req_grid, load_grid, area_grid = quant in
  (* Steady-state cells allocate only their kept points.  Every batch is
     one Curve.Builder.build_map over int codes naming its candidates:
     pruned, capped at [max_curve], and only then decoded and
     materialised, so no tree is built for a point the cap drops.
     [cost] is the one flat cost record threaded through every cost
     computation of the run: Build.*_cost_into writes the three
     coordinates as unboxed float stores, [quantise_cost] rounds them in
     place and Curve.Builder.push_cost moves them into the builder
     columns.  No (req, load, area) tuple and no boxed floats per
     candidate — spelled out manually because the non-flambda compiler
     does not deforest tuples across function boundaries. *)
  let { bld; cost; _ } = scratch in
  (* Extend every solution of [curves] to [root] through a wire, as one
     batch: a candidate's code is its flat index over [curves]. *)
  let extend_all ~name counter root curves =
    let n = Array.length curves in
    scratch.bases <- grow_ints scratch.bases (n + 1);
    let bases = scratch.bases in
    Curve.Builder.clear bld;
    let code = ref 0 in
    for s = 0 to n - 1 do
      let c = curves.(s) in
      bases.(s) <- !code;
      for i = 0 to Curve.size c - 1 do
        Build.extend_wire_cost_into cost tech ~to_:root (Curve.get c i);
        quantise_cost quant cost;
        Curve.Builder.push_cost bld cost !code;
        incr code
      done
    done;
    bases.(n) <- !code;
    ignore (Atomic.fetch_and_add counter !code);
    Curve.Builder.build_map ~name ~max_size:max_curve bld ~f:(fun code ->
        let s = part_of scratch n code in
        Build.extend_wire_data ~to_:root
          (Curve.get curves.(s) (code - bases.(s))))
  in
  (* With no buffer to try the closure would rebuild the curve it was
     given, which is already a capped frontier: hand it back as is. *)
  let close_buffers curve =
    if Curve.is_empty curve || Array.length subset = 0 then curve
    else begin
      let before = allocated_bytes () in
      Curve.Builder.clear bld;
      close_product scratch ~quant ~subset bld curve;
      let out =
        Curve.Builder.build_map ~name:"Star_ptree.close_buffers"
          ~max_size:max_curve bld ~f:(close_data scratch ~subset curve)
      in
      add_bytes bytes_close before;
      out
    end
  in
  let term_boxes = Array.map (terminal_box candidates) terminals in
  (* Bounding box of terminals i..j, precomputed for all ranges by
     extending each row left to right: O(m^2) once, instead of an O(j-i)
     refold inside every cell_active call (O(m^3) over the run). *)
  let range_box =
    let tbl = Array.make (m * m) term_boxes.(0) in
    for i = 0 to m - 1 do
      tbl.((i * m) + i) <- term_boxes.(i);
      for j = i + 1 to m - 1 do
        let prev = tbl.((i * m) + j - 1) in
        tbl.((i * m) + j) <-
          Rect.bounding_box
            [ prev.Rect.lo; prev.Rect.hi; term_boxes.(j).Rect.lo;
              term_boxes.(j).Rect.hi ]
      done
    done;
    tbl
  in
  (* Active candidates of a cell: global actives within the inflated box of
     the cell's terminals.  The first global active is always kept (the
     caller places the source there, see Bubble_construct) so every cell
     can route toward the driver. *)
  let cell_active i j =
    let box = range_box.((i * m) + j) in
    let margin =
      1 + int_of_float (bbox_slack *. float_of_int (Rect.half_perimeter box))
    in
    let box = Rect.inflate box margin in
    let keep idx p = idx = 0 || Rect.contains box candidates.(p) in
    let inside = ref [] in
    for idx = Array.length active - 1 downto 0 do
      if keep idx active.(idx) then inside := active.(idx) :: !inside
    done;
    Array.of_list !inside
  in
  (* The run's cells, filled top-down on first use; [None] until then. *)
  let table = Array.make (m * m) None in
  let idx i j = (i * m) + j in
  let pull computed p =
    Atomic.incr n_pulls;
    let before = allocated_bytes () in
    let out =
      extend_all ~name:"Star_ptree.pull" n_pull_adds candidates.(p) computed
    in
    add_bytes bytes_pull before;
    out
  in
  (* [cell i j] is the cell of terminals i..j: from the run's table, else
     from the context's (by the terminal ids, then the cell's active set,
     see Runs), else computed — its sub-cells first, so no kernel
     batch below is interrupted by another cell's. *)
  let rec cell i j =
    match table.(idx i j) with
    | Some c -> c
    | None ->
      let cell_act = cell_active i j in
      let run = Array.sub term_ids i (j - i + 1) in
      let held = Option.value ~default:[] (Runs.find_opt cells run) in
      let c =
        match List.find_opt (fun (act, _) -> same_ints act cell_act) held with
        | Some (_, c) -> c
        | None ->
          let c = compute_cell i j cell_act in
          Runs.replace cells run ((cell_act, c) :: held);
          c
      in
      table.(idx i j) <- Some c;
      c
  and cell_at i j p =
    let { computed; memo } = cell i j in
    if not (Curve.is_empty computed.(p)) then computed.(p)
    else begin
      match memo.(p) with
      | Some curve -> curve
      | None ->
        let curve = pull computed p in
        memo.(p) <- Some curve;
        curve
    end
  and compute_cell i j cell_act =
    for u = i to j - 1 do
      ignore (cell i u);
      ignore (cell (u + 1) j)
    done;
    let computed = Array.make k Curve.empty in
    let raw =
      if i = j then fun p ->
        let before = allocated_bytes () in
        let root = candidates.(p) in
        let out =
          match terminals.(i) with
          | Sink_term s ->
            Atomic.incr n_base_adds;
            Curve.singleton
              (Solution.quantise ~req_grid ~load_grid ~area_grid
                 (Build.extend_wire tech ~to_:root (Build.of_sink s)))
          | Sub_term sub ->
            extend_all ~name:"Star_ptree.raw" n_base_adds root sub.curves
        in
        add_bytes bytes_base before;
        out
      else fun p ->
        let root = candidates.(p) in
        (* Memoised relocations first, so any pull they trigger is
           attributed to [bytes_pull] instead of this join's delta, and
           none runs inside the join batch (see [scratch]). *)
        for u = i to j - 1 do
          ignore (cell_at i u p);
          ignore (cell_at (u + 1) j p)
        done;
        let before = allocated_bytes () in
        (* The join products of every split into one batch: prune once,
           and only build the joined trees that survive.  Split u is
           part u - i, its operands read into the scratch once. *)
        let n = j - i in
        ensure_splits scratch n;
        let lefts = scratch.lefts and rights = scratch.rights
        and bases = scratch.bases in
        Curve.Builder.clear bld;
        let base = ref 0 in
        for s = 0 to n - 1 do
          let left = cell_at i (i + s) p and right = cell_at (i + s + 1) j p in
          lefts.(s) <- left;
          rights.(s) <- right;
          bases.(s) <- !base;
          join_product scratch ~quant bld ~base:!base left right;
          base := !base + (Curve.size left * Curve.size right)
        done;
        bases.(n) <- !base;
        let out =
          Curve.Builder.build_map ~name:"Star_ptree.join" ~max_size:max_curve
            bld ~f:(fun code ->
                let s = part_of scratch n code in
                let right = rights.(s) and off = code - bases.(s) in
                let nr = Curve.size right in
                Build.join_data root
                  (Curve.get lefts.(s) (off / nr))
                  (Curve.get right (off mod nr)))
        in
        Atomic.incr n_joins;
        (* Survivors count the join's frontier before the cap. *)
        ignore
          (Atomic.fetch_and_add n_join_survivors (Curve.Builder.kept bld));
        add_bytes bytes_join before;
        out
    in
    Atomic.incr n_cells;
    Array.iter
      (fun p -> computed.(p) <- close_buffers (raw p))
      cell_act;
    { computed; memo = Array.make k None }
  in
  (* The top cell stays in the table for later runs: hand out a copy. *)
  Array.copy (cell 0 (m - 1)).computed
