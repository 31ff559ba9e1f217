(** Non-inferior three-dimensional solution curves.

    A curve holds only mutually non-inferior solutions (Definition 6) and
    keeps them in the deterministic {!Solution.compare_key} order, backed
    by a sorted array.  All dynamic programs in the repository combine,
    extend and prune these curves; Lemma 9 (pruning loses no non-inferior
    solution) is enforced here and property-tested in
    [test/test_curves.ml] and [test/test_curve_kernel.ml] (observational
    equivalence against the list-based {!Curve_reference}).

    Every multi-solution curve is built the same way: push a whole
    candidate bag into a {!Builder} and prune it once with
    {!Builder.build} — one stable sort plus one staircase sweep
    (DESIGN.md §"Curve kernel").  The DP hot paths keep one builder per
    DP context and clear it between batches. *)

type 'a t

val empty : 'a t

val is_empty : 'a t -> bool

val size : 'a t -> int

(** [singleton s] is the one-solution curve holding [s]. *)
val singleton : 'a Solution.t -> 'a t

(** Solutions in {!Solution.compare_key} order. *)
val to_list : 'a t -> 'a Solution.t list

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

  (** [add_curve b c] pushes every solution of [c]. *)
  val add_curve : 'a b -> 'a t -> unit

  (** Candidates pushed so far (pre-pruning). *)
  val length : 'a b -> int

  (** Forget all pushed candidates, keeping all storage — including the
      sort/staircase scratch grown by previous {!build}s, so a cleared
      builder reused across a DP's cells reaches a fixed point where
      steady-state builds allocate only the survivor array.  A cleared
      builder is observationally identical to a fresh one (property
      tested in [test/test_curve_kernel.ml]). *)
  val clear : 'a b -> unit

  (** [build ?name ?grids b] prunes the accumulated bag to its exact
      non-inferior frontier: one sort + one staircase sweep, O(P log P + P·F_insert) for P candidates and
      frontier size F.  [grids = (req, load, area)] applies
      {!Solution.quantise} bucketing to every candidate during the
      sweep — required time down, load and area up, so every kept
      solution stays electrically valid; a grid of 0 leaves that
      dimension untouched.  With all three grids set the frontier is
      bounded by the number of distinct (load, area) buckets, which is
      what makes the paper's dynamic programs pseudo-polynomial
      (Lemmas 1 and 10), and the sort runs on packed int keys instead of
      a float comparator (DESIGN.md §9).  [name] labels {!Contract}
      violations. *)
  val build :
    ?name:string ->
    ?grids:float * float * float ->
    'a b ->
    'a t
end

(** [map_data f c] maps only the carried payloads; coordinates — and
    hence the frontier — are unchanged.  This is how hot paths
    materialise deferred payloads after {!Builder.build}. *)
val map_data : ('a -> 'b) -> 'a t -> 'b t

val fold : ('acc -> 'a Solution.t -> 'acc) -> 'acc -> 'a t -> 'acc

val iter : ('a Solution.t -> unit) -> 'a t -> unit

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

(** [cap ~scratch ~max_size curve] reduces the curve to at most
    [max_size] points by keeping an even spread along the required-time
    axis (always keeping both extremes); [max_size >= 2].  [scratch] is
    a builder cleared and reused for the selection, so capping allocates
    only the surviving points (DESIGN.md §5, §9). *)
val cap : scratch:'a Builder.b -> max_size:int -> 'a t -> 'a t
