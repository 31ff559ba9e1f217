open Merlin_geometry
open Merlin_curves

(* A computed cell: curves at the cell's own active roots plus a memo of
   lazy relocations to other roots — the paper's d(p,p') move applied on
   demand instead of as a k^2 sweep. *)
type cell = {
  computed : Build.prov Curve.t array;
  memo : Build.prov Curve.t option array;
}

(* The slot of a run's table no cell has filled yet: a real cell holds
   one curve per candidate, so at least one. *)
let no_cell = { computed = [||]; memo = [||] }

let is_cell c = Array.length c.computed > 0

let same_ints (a : int array) (b : int array) =
  Int.equal (Array.length a) (Array.length b) && Array.for_all2 Int.equal a b

(* Hash tables keyed by runs of ints, for callers that plan runs of
   terminals.  The hash reads every id: Hashtbl.hash stops after the
   first few. *)
module Runs = Hashtbl.Make (struct
    type t = int array

    let equal = same_ints
    let hash key = Hashtbl.hash_param 64 64 key
  end)

(* The cell memo: one entry per run of terminal ids and active set the
   run's cell was computed under, chained by the run's hash.  A lookup
   hashes and compares the run in place, as a slice of the current
   run's ids, and the active set in the context's scratch, so a hit
   allocates nothing (a Hashtbl would need the key built, and its
   find_opt allocates); an entry keeps its own active set and a copy of
   the run, shared with the run's other entries. *)
type entry =
  | Nil
  | Entry of {
      run : int array;
      act : int array;
      cell : cell;
      mutable next : entry;
    }

(* A run's knobs, its batch scratch, the cell memo and the scratch of
   the run in progress: its terminal ids, the active set of the cell
   being looked up, and its cells by (i, j), filled top-down on first
   use.  Every cell's content is a function of its key and these knobs
   (the batch holds the tech, the buffer subset, the cap and the push
   grids), which is why they are fixed when the context is made.
   [closes] is whether the subset holds a buffer. *)
type context = {
  batch : Batch.t;
  closes : bool;
  bbox_slack : float;
  candidates : Point.t array;
  mutable buckets : entry array;
  mutable entries : int;
  mutable ids : int array;
  mutable act : int array;
  mutable table : cell array;
}

(* Sub-group ids are unique in the process, so a sub-group can never
   hit another's cells, whichever context it is used with. *)
let next_sub = Atomic.make 0

type sub = { id : int; curves : Build.prov Curve.t array }

type terminal =
  | Sink_term of Merlin_net.Sink.t
  | Sub_term of sub

let context ~tech ~buffers ~trials ~max_curve ~quant ~bbox_slack ~candidates
    () =
  let subset = Merlin_tech.Buffer_lib.subset buffers ~trials in
  { batch = Batch.create ~tech ~subset ~max_curve ~quant;
    closes = Array.length subset > 0; bbox_slack; candidates;
    buckets = Array.make 16 Nil; entries = 0; ids = [||]; act = [||];
    table = [||] }

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

(* [a.(0 .. len-1)] equals [b.(pos .. pos+len-1)], from offset [t] on. *)
let rec same_from a b pos len t =
  t >= len || (Int.equal a.(t) b.(pos + t) && same_from a b pos len (t + 1))

let same_slice a b pos len =
  Int.equal (Array.length a) len && same_from a b pos len 0

(* Multiply-mix over every id; the bucket index takes the low bits, so
   the high half is folded in. *)
let hash_slice ids pos len =
  let h = ref len in
  for t = pos to pos + len - 1 do
    h := (!h + ids.(t)) * 0x2545F4914F6CDD1D
  done;
  !h lxor (!h lsr 32)

let bucket ctx ids pos len =
  hash_slice ids pos len land (Array.length ctx.buckets - 1)

let rec find_cell e ids pos len act n_act =
  match e with
  | Nil -> no_cell
  | Entry r ->
    if same_slice r.run ids pos len && same_slice r.act act 0 n_act then r.cell
    else find_cell r.next ids pos len act n_act

(* The run's stored ids: an entry's copy if the run has one, else a new
   copy. *)
let rec run_key e ids pos len =
  match e with
  | Nil -> Array.sub ids pos len
  | Entry r ->
    if same_slice r.run ids pos len then r.run else run_key r.next ids pos len

let grow ctx =
  let old = ctx.buckets in
  let buckets = Array.make (2 * Array.length old) Nil in
  let rec move = function
    | Nil -> ()
    | Entry r as e ->
      let next = r.next in
      let b =
        hash_slice r.run 0 (Array.length r.run) land (Array.length buckets - 1)
      in
      r.next <- buckets.(b);
      buckets.(b) <- e;
      move next
  in
  Array.iter move old;
  ctx.buckets <- buckets

(* Stores the cell of the current run's terminals pos .. pos+len-1. *)
let store ctx pos len act cell =
  let b = bucket ctx ctx.ids pos len in
  let run = run_key ctx.buckets.(b) ctx.ids pos len in
  ctx.buckets.(b) <- Entry { run; act; cell; next = ctx.buckets.(b) };
  ctx.entries <- ctx.entries + 1;
  if ctx.entries > 2 * Array.length ctx.buckets then grow ctx

(* The chain [e] without the entries of run [ids.(pos .. pos+len-1)]. *)
let rec unlink ctx e ids pos len =
  match e with
  | Nil -> Nil
  | Entry r ->
    let rest = unlink ctx r.next ids pos len in
    if same_slice r.run ids pos len then begin
      ctx.entries <- ctx.entries - 1;
      Atomic.incr n_dropped;
      rest
    end
    else begin
      r.next <- rest;
      e
    end

(* Loads the terminals' ids into the context's scratch. *)
let load_ids ctx terminals =
  let m = Array.length terminals in
  if Array.length ctx.ids < m then ctx.ids <- Array.make m 0;
  for t = 0 to m - 1 do
    ctx.ids.(t) <- terminal_key terminals.(t)
  done

let drop ctx terminals =
  let len = Array.length terminals in
  load_ids ctx terminals;
  let b = bucket ctx ctx.ids 0 len in
  ctx.buckets.(b) <- unlink ctx ctx.buckets.(b) ctx.ids 0 len

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

(* Every kernel batch goes through the context's [batch] (Batch), and
   the counts it hands back go to the counters here. *)
let extend_counted ctx counter root curves =
  let out = Batch.extend ctx.batch root curves in
  ignore (Atomic.fetch_and_add counter (Batch.pushed ctx.batch));
  out

(* With no buffer to try the closure would rebuild the curve it was
   given, which is already a capped frontier: hand it back as is.  A
   root that already holds a buffer takes no second one: a same-point
   repeater pair is left to the graded library's single sizes. *)
let close_buffers ctx curve =
  if Curve.is_empty curve || not ctx.closes then curve
  else begin
    let before = window_bytes () in
    let out = Batch.close ctx.batch ~rebuffer:false curve in
    ignore (Atomic.fetch_and_add n_close_adds (Batch.pushed ctx.batch));
    ignore (Atomic.fetch_and_add n_close_filtered (Batch.filtered ctx.batch));
    add_bytes bytes_close before;
    out
  end

let pull ctx computed p =
  Atomic.incr n_pulls;
  let before = window_bytes () in
  let out = extend_counted ctx n_pull_adds ctx.candidates.(p) computed in
  add_bytes bytes_pull before;
  out

(* A single terminal's curve at root [p]. *)
let base ctx terminal p =
  let before = window_bytes () in
  let root = ctx.candidates.(p) in
  let out =
    match terminal with
    | Sink_term s ->
      Atomic.incr n_base_adds;
      Batch.sink ctx.batch root s
    | Sub_term sub -> extend_counted ctx n_base_adds root sub.curves
  in
  add_bytes bytes_base before;
  out

(* The points a terminal can occupy, by index: a sink's own point, or
   the candidates a sub-group has a curve at. *)
let n_points = function
  | Sink_term _ -> 1
  | Sub_term sub -> Array.length sub.curves

let occupies terminal p =
  match terminal with
  | Sink_term _ -> true
  | Sub_term sub -> not (Curve.is_empty sub.curves.(p))

let point candidates terminal p =
  match terminal with
  | Sink_term s -> s.Merlin_net.Sink.pt
  | Sub_term _ -> candidates.(p)

(* Active candidates of the cell of terminals i..j, into [ctx.act]; the
   count is returned.  They are the actives within the bounding box of
   the points the terminals can occupy (a sink's point, a sub-group's
   roots), grown as {!Rect.inflate_by_slack} grows it, folded in ints.
   The first active is always kept (the callers place the source there,
   see [source_first]) so every cell can route toward the driver. *)
let cell_active ctx terminals active i j =
  let candidates = ctx.candidates in
  let lx = ref max_int and ly = ref max_int in
  let hx = ref min_int and hy = ref min_int in
  for t = i to j do
    let term = terminals.(t) in
    for p = 0 to n_points term - 1 do
      if occupies term p then begin
        let q = point candidates term p in
        lx := Int.min !lx q.Point.x;
        ly := Int.min !ly q.Point.y;
        hx := Int.max !hx q.Point.x;
        hy := Int.max !hy q.Point.y
      end
    done
  done;
  let margin = Rect.slack_margin ctx.bbox_slack (!hx - !lx + (!hy - !ly)) in
  let lx = !lx - margin and ly = !ly - margin in
  let hx = !hx + margin and hy = !hy + margin in
  let n = ref 0 in
  for idx = 0 to Array.length active - 1 do
    let p = active.(idx) in
    let q = candidates.(p) in
    if idx = 0
    || q.Point.x >= lx && q.Point.x <= hx && q.Point.y >= ly && q.Point.y <= hy
    then begin
      ctx.act.(!n) <- p;
      incr n
    end
  done;
  !n

(* [cell ctx terminals active i j] is the cell of terminals i..j: from
   the run's table, else from the memo (by the terminal ids and the
   cell's active set), else computed — its sub-cells first, so no kernel
   batch below is interrupted by another cell's. *)
let rec cell ctx terminals active i j =
  let at = (i * Array.length terminals) + j in
  let c = ctx.table.(at) in
  if is_cell c then c
  else begin
    let n_act = cell_active ctx terminals active i j in
    let len = j - i + 1 in
    let held =
      find_cell ctx.buckets.(bucket ctx ctx.ids i len) ctx.ids i len ctx.act
        n_act
    in
    let c =
      if is_cell held then held
      else begin
        (* The cells below reuse the scratch: own the set first. *)
        let act = Array.sub ctx.act 0 n_act in
        let c = compute_cell ctx terminals active i j act in
        store ctx i len act c;
        c
      end
    in
    ctx.table.(at) <- c;
    c
  end

and cell_at ctx terminals active i j p =
  let { computed; memo } = cell ctx terminals active i j in
  if not (Curve.is_empty computed.(p)) then computed.(p)
  else begin
    match memo.(p) with
    | Some curve -> curve
    | None ->
      let curve = pull ctx computed p in
      memo.(p) <- Some curve;
      curve
  end

and compute_cell ctx terminals active i j act =
  for u = i to j - 1 do
    ignore (cell ctx terminals active i u);
    ignore (cell ctx terminals active (u + 1) j)
  done;
  let k = Array.length ctx.candidates in
  let computed = Array.make k Curve.empty in
  Atomic.incr n_cells;
  for a = 0 to Array.length act - 1 do
    let p = act.(a) in
    let raw =
      if i = j then base ctx terminals.(i) p
      else join ctx terminals active i j p
    in
    computed.(p) <- close_buffers ctx raw
  done;
  { computed; memo = Array.make k None }

and join ctx terminals active i j p =
  let root = ctx.candidates.(p) in
  (* Memoised relocations first, so any pull they trigger is attributed
     to [bytes_pull] instead of this join's delta, and none runs inside
     the join batch (see Batch.t). *)
  for u = i to j - 1 do
    ignore (cell_at ctx terminals active i u p);
    ignore (cell_at ctx terminals active (u + 1) j p)
  done;
  let batch = ctx.batch in
  let before = window_bytes () in
  (* The join products of every split into one batch: prune once, and
     only build the joined trees that survive.  Split u is split u - i
     of the batch. *)
  for u = i to j - 1 do
    Batch.split batch (u - i)
      (cell_at ctx terminals active i u p)
      (cell_at ctx terminals active (u + 1) j p)
  done;
  let out = Batch.join batch root (j - i) in
  ignore (Atomic.fetch_and_add n_join_adds (Batch.pushed batch));
  ignore (Atomic.fetch_and_add n_join_filtered (Batch.filtered batch));
  Atomic.incr n_joins;
  (* Survivors count the join's frontier before the cap. *)
  ignore (Atomic.fetch_and_add n_join_survivors (Batch.kept batch));
  add_bytes bytes_join before;
  out

let nonempty c = not (Curve.is_empty c)

let run_in ctx ~active ~terminals =
  let m = Array.length terminals and k = Array.length ctx.candidates in
  if m = 0 then invalid_arg "Star_ptree.run_in: no terminals";
  if k = 0 then invalid_arg "Star_ptree.run_in: no candidates";
  if Array.length active = 0 then
    invalid_arg "Star_ptree.run_in: no active candidates";
  Array.iter
    (function
      | Sink_term _ -> ()
      | Sub_term sub ->
        if not (Array.exists nonempty sub.curves) then
          invalid_arg "Star_ptree.run_in: sub-terminal with empty curves")
    terminals;
  Atomic.incr n_runs;
  load_ids ctx terminals;
  if Array.length ctx.act < Array.length active then
    ctx.act <- Array.make (Array.length active) 0;
  if Array.length ctx.table < m * m then ctx.table <- Array.make (m * m) no_cell
  else Array.fill ctx.table 0 (m * m) no_cell;
  (* The top cell stays in the memo for later runs: hand out a copy. *)
  Array.copy (cell ctx terminals active 0 (m - 1)).computed

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
