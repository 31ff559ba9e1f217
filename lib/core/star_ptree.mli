(** The *PTREE engine (paper Section 3.2.3).

    Given an ordered list of terminals — direct sinks and at most a few
    already-constructed sub-groups — and a set of candidate locations, the
    engine computes, for every candidate root p, the non-inferior
    three-dimensional solution curve of rectilinear buffered routings of
    the terminals that respect the terminal order (the P_Tree property),
    may place a buffer at any routing root (the * of *P_Tree) and may route
    through other candidate locations (the d(p,p') relocation of the
    paper's recurrence).

    The interval DP follows the paper's recurrences:
    - S_b(p,i,j) = min over u of S(p,i,u) + S(p,u+1,j) (joins at p)
    - S(p,i,j)  = min over p' of d(p,p') + S_b(p',i,j) (one-hop moves;
      multi-hop paths compose across DP levels since Manhattan distance is
      a metric, and buffered hops are covered because every curve is
      "closed" under root-buffer insertion before it is extended). *)

open Merlin_geometry
open Merlin_tech
open Merlin_net
open Merlin_curves

(** Per-construct memo of interval cells, with the knobs, the scratch
    builders and the scratch of the run in progress (its terminal ids,
    cell table and active set) every run through it shares.  A cell of the interval DP —
    the curves of terminals i..j at the cell's active roots, and its
    lazy relocations to other roots — depends only on those terminals,
    that active set and the knobs (the active set of every sub-cell is
    fixed by its parent's, DESIGN.md §9 "Cell memo"), so runs through
    one context look each cell up before computing it.  Sinks are keyed
    by their [id], so one context serves the sinks of one net.  A
    context is single-domain state: make one per construction and never
    share it between tasks. *)
type context

(** [context ~tech ~buffers ~trials ~max_curve ~quant ~bbox_slack
    ~candidates ()] is an empty memo for runs with these knobs.
    [trials] bounds how many library buffers are tried at each root
    (evenly spaced over the graded library); [quant] are the (req, load,
    area) grids every candidate is quantised to as it is pushed
    ({!Solution.quantise}); [max_curve] caps every curve the DP keeps
    (the [max_size] of {!Curve.Builder.build_map}). *)
val context :
  tech:Tech.t ->
  buffers:Buffer_lib.t ->
  trials:int ->
  max_curve:int ->
  quant:float * float * float ->
  bbox_slack:float ->
  candidates:Point.t array ->
  unit ->
  context

(** [source_first candidates source] is every candidate index, the
    source's first and the others in their order: the [active] order
    {!run_in} expects, since every cell keeps its first active so that it
    can route toward the driver.  [None] if [source] is not a candidate. *)
val source_first : Point.t array -> Point.t -> int array option

(** An already-built sub-group: one curve per candidate index, each
    solution rooted at that candidate, with an identity unique in the
    process. *)
type sub

(** [sub curves] makes a sub-group terminal.  Make exactly one per
    sub-group and reuse it: memoised cells are keyed by this identity,
    not by the curves. *)
val sub : Build.prov Curve.t array -> sub

type terminal =
  | Sink_term of Sink.t
  | Sub_term of sub

(** [drop ctx terminals] drops the memoised cells of exactly this run
    of terminals (under every active set) — call it once no later run
    holds it.  Dropping early costs only recomputation. *)
val drop : context -> terminal array -> unit

(** Hash tables keyed by runs of ints, hashed over every element (the
    generic [Hashtbl.hash] reads only the first few), for callers that
    plan runs of terminals.  A caller that probes with a scratch array
    and stores a copy only when it adds allocates nothing per probe. *)
module Runs : Hashtbl.S with type key = int array

(** [run_in ctx ~active ~terminals] is the per-candidate solution curve
    array (length [Array.length candidates]) for routing all [terminals]
    rooted at each candidate whose index appears in [active]; curves at
    inactive indices are empty.  Every returned curve is closed under
    root-buffer insertion.  It reuses and extends [ctx]'s cells, and a
    result never depends on which cells were already there: a fresh
    context per call gives the same curves.  Beyond the cells it
    computes and stores, a run allocates only its result: it keeps no
    reference to [terminals] or [active], and a lookup that finds its
    cell allocates nothing.  Raises [Invalid_argument] on empty
    [terminals], [candidates] or [active], or on a sub-group with no
    curve. *)
val run_in :
  context -> active:int array -> terminals:terminal array -> Build.prov Curve.t array

(** One reading of the kernel counters, process totals.  They count
    computed work only, so a memoised cell adds nothing, and only
    {!run_in} moves them ({!Batch} hands back its counts).  [runs]
    counts {!run_in} calls; every computed cell is held by its context
    until {!drop}, which adds the cells it drops to [dropped].  The
    [_adds] fields count pushes after the exact pre-filters, and the
    [_filtered] ones the candidates those left out, so the two sum to
    the whole product.  The [bytes_] fields sum {!window_bytes} deltas
    around each kernel entry point; [joins] and [join_survivors] count
    join builds and the points they kept. *)
type counts = {
  runs : int; cells : int; dropped : int; pulls : int;
  joins : int; join_adds : int; join_filtered : int; join_survivors : int;
  close_adds : int; close_filtered : int; pull_adds : int; base_adds : int;
  bytes_join : int; bytes_close : int; bytes_pull : int; bytes_base : int;
}

val counts : unit -> counts

(** [diff before after] is the field-wise [after - before]: the work
    done between two readings. *)
val diff : counts -> counts -> counts

(**/**)
(* Bytes this domain has allocated so far, counted so that it does not
   move across a garbage collection (unlike [Gc.allocated_bytes] on
   OCaml 5.1): the difference of two readings is exactly what the code
   between them allocated, plus the reading's own few words. *)
val allocated_bytes : unit -> float

(* Bytes this domain has allocated on the minor heap so far: the
   reading the kernel's byte windows take.  In native code a reading
   allocates nothing, so a window holds only the kernel's own bytes;
   it leaves out blocks allocated directly on the major heap (DESIGN.md
   §9 "Bytes-moved telemetry"). *)
val window_bytes : unit -> int

(* The counters {!counts} reads that perfbench still reads one by one;
   see [counts] for what they count. *)
val n_joins : int Atomic.t
val n_join_adds : int Atomic.t
val n_join_survivors : int Atomic.t
val n_cells : int Atomic.t
val n_pulls : int Atomic.t
val bytes_join : int Atomic.t
val bytes_close : int Atomic.t
val bytes_pull : int Atomic.t
val bytes_base : int Atomic.t
(**/**)
