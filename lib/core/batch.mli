(** The candidate batches of the curve DPs: the join, root-buffer and
    wire moves of {!Build}, each applied to a whole set of solutions and
    pruned once.  \*PTREE ({!Star_ptree}) and van Ginneken's buffer
    insertion run every batch through here, and PTREE, MERLIN's
    construction and van Ginneken connect the driver through
    {!to_driver}.

    A batch pushes each candidate's cost (the [Build.*_cost_into]
    twins, quantised to the batch's grids) under an [int] code naming
    it, prunes the lot with one {!Curve.Builder.build_map} capped at
    [max_curve], and records provenance with the [Build.*_data] forms
    only for the points it keeps (DESIGN.md §9 "Zero-allocation steady
    state").  Joins and closures leave out, before pushing, only
    candidates the build provably drops, so every curve is the one the
    full product would build (DESIGN.md §9 "Exact candidate
    pre-filters").

    Every per-candidate call of these batches lives in this module:
    dune's dev profile compiles with [-opaque], so a call across modules
    boxes its float arguments, and only per-batch calls cross. *)

open Merlin_geometry
open Merlin_tech
open Merlin_net
open Merlin_curves

(** A batch's knobs and the scratch every batch shares: one builder and
    grow-only columns.  No two batches interleave: each is built before
    the next one opens, so a caller must not run a batch while it
    records the splits of a {!join}.  A scratch is single-domain state:
    make one per DP and never share it between tasks. *)
type t

(** [create ~tech ~subset ~max_curve ~quant] is an empty scratch whose
    closures try the buffers of [subset], whose (req, load, area)
    candidates are quantised to the grids [quant] as they are pushed
    ({!Solution.quantise}; a zero grid leaves its coordinate alone) and
    whose curves are capped at [max_curve] (the [max_size] of
    {!Curve.Builder.build_map}). *)
val create :
  tech:Tech.t ->
  subset:Buffer_lib.t ->
  max_curve:int ->
  quant:float * float * float ->
  t

(** [sink b root s] is the one-solution curve of sink [s] wired to
    [root], quantised like a pushed candidate. *)
val sink : t -> Point.t -> Sink.t -> Build.prov Curve.t

(** [extend b root curves] is every solution of [curves] re-rooted at
    [root] through a wire ({!Build.extend_wire}), as one capped curve.
    The code of a candidate is its flat index over [curves]. *)
val extend : t -> Point.t -> Build.prov Curve.t array -> Build.prov Curve.t

(** [split b s left right] records the operands of split [s] of the next
    {!join}. *)
val split : t -> int -> Build.prov Curve.t -> Build.prov Curve.t -> unit

(** [join b root n] joins the [n] recorded splits at [root]: every
    solution of split s's left operand with every solution of its right
    one ({!Build.join_data}), all splits as one capped curve.  The pair of
    the left operand's ia-th and the right operand's ib-th solution is
    named [base + ia * |right| + ib], where [base] sums the earlier
    splits' products.  A pair is left out when another pair of the same
    split provably beats it.  Raises [Invalid_argument] if an operand's
    root is not [root]. *)
val join : t -> Point.t -> int -> Build.prov Curve.t

(** [close b ~rebuffer curve] is the buffer closure of [curve]: every
    solution as it is, then every buffer of the subset at the root of
    every solution ({!Build.add_root_buffer_data}), as one capped curve.  A
    root that already holds a buffer takes trials only when [rebuffer]
    holds.  Solution i is named [i], and the trial of subset buffer bi
    on the oi-th root that takes trials [size curve + oi * |subset| +
    bi].  A trial is left out when another trial of the same buffer
    provably beats it. *)
val close : t -> rebuffer:bool -> Build.prov Curve.t -> Build.prov Curve.t

(** The counts of the last {!extend}, {!join} or {!close}: candidates
    pushed and candidates its pre-filter left out (pushed plus filtered
    is the whole product; a closure counts its trials only), and
    {!Curve.Builder.kept}, the frontier width before the cap. *)
val pushed : t -> int

val filtered : t -> int

val kept : t -> int

(** [to_driver ~tech net curves] connects the driver of [net] to every
    solution of [curves]: each is re-rooted at the source through a
    wire and its required time less the driver's gate delay at the load
    it then drives, as one uncapped curve. *)
val to_driver : tech:Tech.t -> Net.t -> Build.prov Curve.t array -> Build.prov Curve.t
