open Merlin_geometry
open Merlin_curves

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

(* A run's knobs, its batch scratch and the cell table.  Every cell's
   content is a function of its key and these knobs (the batch holds the
   tech, the buffer subset, the cap and the push grids), which is why
   they are fixed when the context is made.  [closes] is whether the
   subset holds a buffer. *)
type context = {
  batch : Batch.t;
  closes : bool;
  bbox_slack : float;
  candidates : Point.t array;
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
  let subset = Merlin_tech.Buffer_lib.subset buffers ~trials in
  { batch = Batch.create ~tech ~subset ~max_curve ~quant;
    closes = Array.length subset > 0; bbox_slack; candidates;
    cells = Runs.create 16 }

let source_first candidates source =
  let k = Array.length candidates in
  let rec find p =
    if p >= k then None
    else if Point.equal candidates.(p) source then Some p
    else find (p + 1)
  in
  Option.map
    (fun s ->
       Array.init k (fun i -> if i = 0 then s else if i <= s then i - 1 else i))
    (find 0)

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

(* Bytes-moved telemetry: [window_bytes] deltas around each kernel
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

(* The byte windows' reading: minor-heap bytes only.  [Gc.minor_words]
   returns an unboxed float and the conversion keeps it unboxed, so in
   native code a reading allocates nothing, where [allocated_bytes]
   allocates the [Gc.counters] tuple and boxed floats, about 96 B, twice
   per window.  A window leaves out the blocks allocated directly on
   the major heap: those over Max_young_wosize (256 words), such as a
   builder's scratch growing or a curve of more than 256 points. *)
let window_bytes () = int_of_float (Gc.minor_words ()) * (Sys.word_size / 8)

let add_bytes counter before =
  ignore (Atomic.fetch_and_add counter (window_bytes () - before))

let run_in ctx ~active ~terminals =
  let { batch; closes; bbox_slack; candidates; cells } = ctx in
  let m = Array.length terminals and k = Array.length candidates in
  if m = 0 then invalid_arg "Star_ptree.run_in: no terminals";
  if k = 0 then invalid_arg "Star_ptree.run_in: no candidates";
  if Array.length active = 0 then
    invalid_arg "Star_ptree.run_in: no active candidates";
  Atomic.incr n_runs;
  let term_ids = Array.map terminal_key terminals in
  (* Every kernel batch goes through the context's [batch] (Batch), and
     the counts it hands back go to the counters here. *)
  let extend_counted counter root curves =
    let out = Batch.extend batch root curves in
    ignore (Atomic.fetch_and_add counter (Batch.pushed batch));
    out
  in
  (* With no buffer to try the closure would rebuild the curve it was
     given, which is already a capped frontier: hand it back as is.  A
     root that already holds a buffer takes no second one: a same-point
     repeater pair is left to the graded library's single sizes. *)
  let close_buffers curve =
    if Curve.is_empty curve || not closes then curve
    else begin
      let before = window_bytes () in
      let out = Batch.close batch ~rebuffer:false curve in
      ignore (Atomic.fetch_and_add n_close_adds (Batch.pushed batch));
      ignore (Atomic.fetch_and_add n_close_filtered (Batch.filtered batch));
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
     callers place the source there, see [source_first]) so every cell
     can route toward the driver. *)
  let cell_active i j =
    let box = Rect.inflate_by_slack bbox_slack range_box.((i * m) + j) in
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
    let before = window_bytes () in
    let out = extend_counted n_pull_adds candidates.(p) computed in
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
        let before = window_bytes () in
        let root = candidates.(p) in
        let out =
          match terminals.(i) with
          | Sink_term s ->
            Atomic.incr n_base_adds;
            Batch.sink batch root s
          | Sub_term sub -> extend_counted n_base_adds root sub.curves
        in
        add_bytes bytes_base before;
        out
      else fun p ->
        let root = candidates.(p) in
        (* Memoised relocations first, so any pull they trigger is
           attributed to [bytes_pull] instead of this join's delta, and
           none runs inside the join batch (see Batch.t). *)
        for u = i to j - 1 do
          ignore (cell_at i u p);
          ignore (cell_at (u + 1) j p)
        done;
        let before = window_bytes () in
        (* The join products of every split into one batch: prune once,
           and only build the joined trees that survive.  Split u is
           split u - i of the batch. *)
        for u = i to j - 1 do
          Batch.split batch (u - i) (cell_at i u p) (cell_at (u + 1) j p)
        done;
        let out = Batch.join batch root (j - i) in
        ignore (Atomic.fetch_and_add n_join_adds (Batch.pushed batch));
        ignore (Atomic.fetch_and_add n_join_filtered (Batch.filtered batch));
        Atomic.incr n_joins;
        (* Survivors count the join's frontier before the cap. *)
        ignore
          (Atomic.fetch_and_add n_join_survivors (Batch.kept batch));
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

(* One reading of every kernel counter, for callers that diff two. *)
type counts = {
  runs : int; cells : int; dropped : int; pulls : int;
  joins : int; join_adds : int; join_filtered : int; join_survivors : int;
  close_adds : int; close_filtered : int; pull_adds : int; base_adds : int;
  bytes_join : int; bytes_close : int; bytes_pull : int; bytes_base : int;
}

let counts () =
  let g = Atomic.get in
  { runs = g n_runs; cells = g n_cells; dropped = g n_dropped;
    pulls = g n_pulls; joins = g n_joins; join_adds = g n_join_adds;
    join_filtered = g n_join_filtered; join_survivors = g n_join_survivors;
    close_adds = g n_close_adds; close_filtered = g n_close_filtered;
    pull_adds = g n_pull_adds; base_adds = g n_base_adds;
    bytes_join = g bytes_join; bytes_close = g bytes_close;
    bytes_pull = g bytes_pull; bytes_base = g bytes_base }

let diff a b =
  { runs = b.runs - a.runs; cells = b.cells - a.cells;
    dropped = b.dropped - a.dropped; pulls = b.pulls - a.pulls;
    joins = b.joins - a.joins; join_adds = b.join_adds - a.join_adds;
    join_filtered = b.join_filtered - a.join_filtered;
    join_survivors = b.join_survivors - a.join_survivors;
    close_adds = b.close_adds - a.close_adds;
    close_filtered = b.close_filtered - a.close_filtered;
    pull_adds = b.pull_adds - a.pull_adds;
    base_adds = b.base_adds - a.base_adds;
    bytes_join = b.bytes_join - a.bytes_join;
    bytes_close = b.bytes_close - a.bytes_close;
    bytes_pull = b.bytes_pull - a.bytes_pull;
    bytes_base = b.bytes_base - a.bytes_base }
