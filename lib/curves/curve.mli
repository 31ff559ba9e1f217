(** Non-inferior three-dimensional solution curves.

    A curve holds only mutually non-inferior solutions (Definition 6) and
    keeps them in the deterministic {!Solution.compare_key} order, stored
    as sorted columns.  All dynamic programs in the repository combine,
    extend and prune these curves; Lemma 9 (pruning loses no non-inferior
    solution) is enforced here and property-tested in
    [test/test_curves.ml] and [test/test_curve_kernel.ml] (observational
    equivalence against the list-based oracle in
    [test/support/curve_reference.ml]).

    Every multi-solution curve is built the same way: push a whole
    candidate bag into a {!Builder} and prune it once with
    {!Builder.build} — one stable sort plus one staircase sweep, capped
    at [max_size] points before any payload is built (DESIGN.md §9).  The DP hot paths keep one builder per
    DP context and clear it between batches. *)

(** A curve's points as columns: point [i] is ([req.(i)], [load.(i)],
    [area.(i)]) carrying [data.(i)], and every column has the curve's
    size.  The float columns hold their values unboxed, so a DP loop
    in another module reads a coordinate with [Float.Array.get] and
    allocates nothing; a per-point accessor function would box each
    float it returns, since dune's dev profile compiles with [-opaque]
    (DESIGN.md §9 "Representation").  The record is private: only
    {!Builder} makes curves, so the order and frontier invariants
    hold.  The columns are read-only by contract: curves share them
    ({!map_data}, the empty curve), so writing one would change every
    curve that holds it. *)
type 'a t = private {
  req : floatarray;   (** required time, ps, non-increasing *)
  load : floatarray;  (** capacitance at the root, fF *)
  area : floatarray;  (** total buffer area, 1000 lambda^2 *)
  data : 'a array;    (** the payload of each point *)
}

val empty : 'a t

val is_empty : 'a t -> bool

val size : 'a t -> int

(** [singleton s] is the one-solution curve holding [s]. *)
val singleton : 'a Solution.t -> 'a t

(** The functions below that return a {!Solution.t} build it on
    demand, boxing its three floats: they serve the cold paths (the
    final pick, reports and tests), and the DP loops read the columns
    instead. *)

(** [get c i] is the solution at position [i] of [c], in
    {!Solution.compare_key} order.  Raises [Invalid_argument] unless
    [0 <= i < size c]. *)
val get : 'a t -> int -> 'a Solution.t

(** Batch accumulator: push candidate coordinates (and their payloads)
    into structure-of-arrays storage, then prune the whole bag at once.
    Ties on {!Solution.compare_key} keep the earliest push. *)
module Builder : sig
  type 'a b

  (** [create ?hint ()] is an empty accumulator with initial capacity
      [hint] (it grows as needed). *)
  val create : ?hint:int -> unit -> 'a b

  (** [push b ~req ~load ~area data] records one candidate without
      allocating a {!Solution.t} — the hot paths push raw costs and defer
      building the carried structure to the frontier survivors. *)
  val push : 'a b -> req:float -> load:float -> area:float -> 'a -> unit

  (** Mutable all-float coordinate carrier for the DP hot paths.  An
      all-float record is stored flat, so a cost computation can write
      its three results as unboxed float stores and {!push_cost} can
      move them straight into the builder's columns — no [(req, load,
      area)] tuple and no boxed floats per candidate, which the
      non-flambda compiler cannot eliminate across a function boundary
      on its own (DESIGN.md §9). *)
  type cost = {
    mutable creq : float;
    mutable cload : float;
    mutable carea : float;
  }

  val new_cost : unit -> cost

  (** [push_cost b c data] is [push] reading its coordinates from [c]. *)
  val push_cost : 'a b -> cost -> 'a -> unit

  (** [add b s] pushes an existing solution. *)
  val add : 'a b -> 'a Solution.t -> unit

  (** [add_curve b c] pushes every solution of [c], copying its
      columns without boxing a float. *)
  val add_curve : 'a b -> 'a t -> unit

  (** [add_positions b c] pushes every point of [c] with its position
      in [c] as the payload: point [i] is pushed as [i].  A batch that
      re-pushes a curve's points next to new candidates names them
      this way, and the floats stay unboxed. *)
  val add_positions : int b -> 'a t -> unit

  (** Forget all pushed candidates, keeping all storage — including the
      sort/staircase scratch grown by previous {!build}s, so a cleared
      builder reused across a DP's cells reaches a fixed point where
      steady-state builds allocate only the returned points.  A cleared
      builder is observationally identical to a fresh one (property
      tested in [test/test_curve_kernel.ml]). *)
  val clear : 'a b -> unit

  (** [build_map ?name ?max_size ~f b] prunes the accumulated bag to
      its exact non-inferior frontier — one sort + one staircase sweep,
      O(P log P + P·F_insert) for P candidates and frontier size F —
      and, when the frontier holds more than [max_size] points, keeps
      [max_size] of them: the first point (best required time), the
      first least-load and least-area points, the last point, and an
      even spread of the rest along the required-time axis, truncated in
      curve order when the four extremes alone overflow a cap below 4.
      [f] materialises the payload of each returned point, exactly once
      per point and never for a pruned or dropped candidate, so the
      result equals capping [map_data f] of the full frontier while
      building only what is kept (DESIGN.md §5, §9).  Raises
      [Invalid_argument] if [max_size < 2].  [name] labels {!Contract}
      violations. *)
  val build_map :
    ?name:string -> ?max_size:int -> f:('a -> 'b) -> 'a b -> 'b t

  (** [build ?name ?max_size b] is [build_map ~f:Fun.id]. *)
  val build : ?name:string -> ?max_size:int -> 'a b -> 'a t

  (** Frontier width of the last {!build_map} on this builder, before
      [max_size] dropped any point (0 after an empty build). *)
  val kept : 'a b -> int
end

(** [map_data f c] maps only the carried payloads; coordinates — and
    hence the frontier — are unchanged, and the result shares [c]'s
    float columns. *)
val map_data : ('a -> 'b) -> 'a t -> 'b t

(** Solution with the largest required time, ties broken by smaller load
    then area (the curve's first element). *)
val best_req : 'a t -> 'a Solution.t option

(** [best_under_area curve ~area] is the max-required-time solution with
    area at most [area] (problem variant I). *)
val best_under_area : 'a t -> area:float -> 'a Solution.t option

(** [best_min_area curve ~req] is the min-area solution with required time
    at least [req] (problem variant II).  The scan early-exits at the
    first element below the floor (the curve is req-descending). *)
val best_min_area : 'a t -> req:float -> 'a Solution.t option
