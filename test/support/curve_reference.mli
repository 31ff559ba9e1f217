(** The pre-batch, list-based curve implementation, retained as the
    executable specification for the array-backed batch kernel in
    {!Merlin_curves.Curve}.  [test/test_curve_kernel.ml] property-tests
    that both produce identical frontiers (same solutions, same order,
    same tie-breaks) for every batch operation.  Test support: not
    used by the DP cores. *)

open Merlin_curves

type 'a t = 'a Solution.t list

(** [dominates s1 s2] — Definition 6: [s2] is inferior to [s1] iff
    load(s1) <= load(s2), req(s2) <= req(s1) and area(s1) <= area(s2).
    A solution dominates itself. *)
val dominates : 'a Solution.t -> 'a Solution.t -> bool

val empty : 'a t

val size : 'a t -> int

(** [of_curve c] is [c]'s points in {!Merlin_curves.Solution.compare_key}
    order, each built with {!Merlin_curves.Curve.get}. *)
val of_curve : 'a Curve.t -> 'a t

(** Incremental insert with domination pruning — the O(frontier) list
    rebuild the batch kernel replaces. *)
val add : 'a t -> 'a Solution.t -> 'a t

val of_list : 'a Solution.t list -> 'a t

val union : 'a t -> 'a t -> 'a t

val map_solutions : ('a Solution.t -> 'b Solution.t) -> 'a t -> 'b t

(** Reference for the early-exit {!Curve.best_min_area}: folds the whole
    list. *)
val best_min_area : 'a t -> req:float -> 'a Solution.t option

(** Reference for {!Curve.Builder.build}'s [max_size] selection. *)
val cap : max_size:int -> 'a t -> 'a t
