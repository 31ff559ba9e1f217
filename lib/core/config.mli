(** Tuning knobs of the MERLIN engine.

    The defaults follow the paper where it states values (alpha = 15 for
    Table 1, alpha = 10 and reduced Hanan candidates for Table 2).  The
    [quant_*] grids are the pseudo-polynomial provisos of Lemmas 1/10
    and the only frontier pruning: every frontier build keeps the exact
    non-inferior set of the quantised coordinates, and [max_curve] then
    caps the result.  Per-experiment settings are in EXPERIMENTS.md. *)

type chain_placement =
  | All_positions
      (** the inner sub-group may sit anywhere inside the enclosing window
          (the paper's Fig. 9 loops) *)
  | Flush_ends
      (** restrict the inner sub-group to the window ends — a faster,
          slightly restricted hierarchy used for very large nets *)

type t = {
  alpha : int;  (** max branching factor of the C-alpha tree (>= 2) *)
  max_curve : int;
      (** safety cap on every solution curve (>= 2), the [max_size] of
          Curve.Builder.build; the natural frontier is often wider, and
          points past the cap are dropped before any tree is built *)
  quant_req : float;
      (** required-time bucket, ps (0 disables); rounded down *)
  quant_load : float;
      (** load bucket, fF (0 disables); rounded up — the paper's
          "polynomially bounded integer capacitances" proviso *)
  quant_area : float;
      (** buffer-area bucket, 1000 lambda^2 (0 disables); rounded up *)
  candidate_limit : int;  (** cap on the candidate-location count *)
  buffer_trials : int;
      (** number of evenly spaced library buffers tried when closing a
          routing root (the full library stays available; this is the
          pruning-of-equivalent-drive-strengths knob, cf. the paper's
          observation that the effective fanout bound depends on the
          library, not the problem size) *)
  bbox_slack : float;
      (** candidate locations outside the terminals' bounding box inflated
          by this fraction are not offered to a merge (the source location
          is always kept) *)
  full_hanan : bool;
      (** use the complete Hanan grid (Table 1 setup) rather than the
          reduced set, subject to [candidate_limit] *)
  chain_placement : chain_placement;
  bubbling : bool;
      (** enable the chi_1..chi_3 grouping structures (local
          order-perturbation).  Disabling restricts the engine to the
          single given order (chi_0 only) — the ablation that isolates the
          paper's core contribution *)
  max_iters : int;  (** bound on MERLIN outer-loop iterations *)
}

val default : t

(** Table 1 setup: alpha = 15, full Hanan candidates. *)
val paper_table1 : t

(** Table 2 setup: alpha = 10, reduced Hanan, at most 3 MERLIN loops. *)
val paper_table2 : t

(** [scaled n] picks knobs by net size: paper-faithful below 20 sinks,
    progressively tighter pruning and [Flush_ends] above. *)
val scaled : int -> t

(** Raises [Invalid_argument] if a field is out of range. *)
val validate : t -> unit
