open Merlin_geometry
open Merlin_curves

(* Evenly spaced subset of the library tried at every routing root.  The
   library is a graded single-parameter family, so a spread of strengths
   loses little; the knob is documented in Config. *)
let buffer_subset buffers ~trials =
  let n = Array.length buffers in
  if n <= trials then buffers
  else
    Array.init trials (fun i -> buffers.(i * (n - 1) / (max 1 (trials - 1))))

(* Deferred payload of the buffer-closure batch: frontier survivors that
   were already in the curve keep their tree; buffered candidates build
   theirs only after pruning. *)
type close_payload =
  | Kept of Build.t
  | Buffered of Merlin_tech.Buffer_lib.buffer * Build.sol

(* One scratch builder per payload type, shared by every DP of a
   context (the builders own their sort/staircase/selection scratch, see
   Curve.Builder): joins, buffer closures and extend-to-root batches
   (pull and sub-terminal bases never interleave).  A cleared builder is
   observationally a fresh one, so sharing them across runs changes no
   result.  [cost] is the flat cost record threaded through every cost
   computation (see [run_in]). *)
type scratch = {
  join_bld : (Build.t Solution.t * Build.t Solution.t) Curve.Builder.b;
  close_bld : close_payload Curve.Builder.b;
  extend_bld : Build.t Solution.t Curve.Builder.b;
  cost : Curve.Builder.cost;
}

let new_scratch () =
  { join_bld = Curve.Builder.create ();
    close_bld = Curve.Builder.create ();
    extend_bld = Curve.Builder.create ();
    cost = Curve.Builder.new_cost () }

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
  { tech; subset = buffer_subset buffers ~trials; max_curve; quant;
    bbox_slack; candidates; scratch = new_scratch (); cells = Runs.create 16 }

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

(* Bytes-moved telemetry: [Gc.allocated_bytes] deltas around each kernel
   entry point (join, buffer closure, pull, base), plus join-build and
   survivor counts so bytes-per-join and mean frontier width fall out of
   a single counter snapshot.  [Gc.allocated_bytes] is per-domain, so a
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

let add_bytes counter before =
  ignore
    (Atomic.fetch_and_add counter
       (int_of_float (Gc.allocated_bytes () -. before)))

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
     one Curve.Builder.build_map: pruned, capped at [max_curve], and only
     then materialised, so no tree is built for a point the cap drops. *)
  let { join_bld; close_bld; extend_bld; cost } = scratch in
  (* One flat cost record threaded through every cost computation of the
     run: Build.*_cost_into writes the three coordinates as unboxed
     float stores, [push_quant] quantises them in place (the same
     floor/ceil expressions as Solution.quantise, so bit-identical) and
     Curve.Builder.push_cost moves them into the builder columns.  No
     (req, load, area) tuple and no boxed floats per candidate — spelled
     out manually because the non-flambda compiler does not deforest
     tuples across function boundaries. *)
  let push_quant bld payload =
    if req_grid <> 0.0 then
      cost.Curve.Builder.creq <-
        floor (cost.Curve.Builder.creq /. req_grid) *. req_grid;
    if load_grid <> 0.0 then
      cost.Curve.Builder.cload <-
        ceil (cost.Curve.Builder.cload /. load_grid) *. load_grid;
    if area_grid <> 0.0 then
      cost.Curve.Builder.carea <-
        ceil (cost.Curve.Builder.carea /. area_grid) *. area_grid;
    Curve.Builder.push_cost bld cost payload
  in
  (* Try each buffer on every unbuffered root; re-buffering an existing
     buffer (a same-point repeater) is dominated by picking the right
     single size from the graded library, so it is skipped.  Two push
     passes — existing solutions first, then buffered candidates — so
     equal-cost ties resolve exactly as they did when the candidates were
     added one by one into the existing curve. *)
  let close_buffers curve =
    if Curve.is_empty curve then curve
    else begin
      let before = Gc.allocated_bytes () in
      let bld = close_bld in
      Curve.Builder.clear bld;
      Curve.iter
        (fun sol ->
           Curve.Builder.push bld ~req:sol.Solution.req ~load:sol.Solution.load
             ~area:sol.Solution.area (Kept sol.Solution.data))
        curve;
      Curve.iter
        (fun sol ->
           match sol.Solution.data.Build.tree with
           | Merlin_rtree.Rtree.Node { buffer = Some _; _ } -> ()
           | Merlin_rtree.Rtree.Leaf _
           | Merlin_rtree.Rtree.Node { buffer = None; _ } ->
             Array.iter
               (fun b ->
                  Atomic.incr n_close_adds;
                  Build.add_root_buffer_cost_into cost b sol;
                  push_quant bld (Buffered (b, sol)))
               subset)
        curve;
      let out =
        Curve.Builder.build_map ~name:"Star_ptree.close_buffers"
          ~max_size:max_curve bld ~f:(function
          | Kept data -> data
          | Buffered (b, sol) -> Build.add_root_buffer_data b sol)
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
    let before = Gc.allocated_bytes () in
    let root = candidates.(p) in
    let bld = extend_bld in
    Curve.Builder.clear bld;
    Array.iter
      (Curve.iter (fun sol ->
         Atomic.incr n_pull_adds;
         Build.extend_wire_cost_into cost tech ~to_:root sol;
         push_quant bld sol))
      computed;
    let out =
      Curve.Builder.build_map ~name:"Star_ptree.pull" ~max_size:max_curve bld
        ~f:(Build.extend_wire_data ~to_:root)
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
        let before = Gc.allocated_bytes () in
        let root = candidates.(p) in
        let out =
          match terminals.(i) with
          | Sink_term s ->
            Atomic.incr n_base_adds;
            Curve.singleton
              (Solution.quantise ~req_grid ~load_grid ~area_grid
                 (Build.extend_wire tech ~to_:root (Build.of_sink s)))
          | Sub_term sub ->
            let bld = extend_bld in
            Curve.Builder.clear bld;
            Array.iter
              (Curve.iter (fun sol ->
                 Atomic.incr n_base_adds;
                 Build.extend_wire_cost_into cost tech ~to_:root sol;
                 push_quant bld sol))
              sub.curves;
            Curve.Builder.build_map ~name:"Star_ptree.raw" ~max_size:max_curve
              bld ~f:(Build.extend_wire_data ~to_:root)
        in
        add_bytes bytes_base before;
        out
      else fun p ->
        let root = candidates.(p) in
        (* Memoised relocations first, so any pull they trigger is
           attributed to [bytes_pull] instead of this join's delta. *)
        for u = i to j - 1 do
          ignore (cell_at i u p);
          ignore (cell_at (u + 1) j p)
        done;
        let before = Gc.allocated_bytes () in
        (* The join product: push every (a, b) cost pair, prune once, and
           only build the joined trees that survive. *)
        let bld = join_bld in
        Curve.Builder.clear bld;
        for u = i to j - 1 do
          let left = cell_at i u p and right = cell_at (u + 1) j p in
          if not (Curve.is_empty left || Curve.is_empty right) then
            Curve.iter
              (fun a ->
                 Curve.iter
                   (fun b ->
                      Atomic.incr n_join_adds;
                      Build.join_cost_into cost a b;
                      push_quant bld (a, b))
                   right)
              left
        done;
        let out =
          Curve.Builder.build_map ~name:"Star_ptree.join" ~max_size:max_curve
            bld ~f:(fun (a, b) -> Build.join_data root a b)
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
