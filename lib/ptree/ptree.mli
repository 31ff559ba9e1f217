(** PTREE — the permutation-constrained routing DP of Lillis et al.
    [LCLH96], used by the paper's Setups I and II.

    Given a sink order, PTREE finds non-inferior rectilinear routing
    embeddings into a candidate-location set (classically the Hanan grid).
    It is exactly the paper's *PTREE restricted to an empty buffer
    library, and is implemented that way: the returned structures contain
    no buffers, and the curve trades required time against load (the
    area dimension stays zero). *)

open Merlin_geometry
open Merlin_tech
open Merlin_net
open Merlin_curves
open Merlin_order

(** [candidate_set ?limit net] is the (possibly reduced) Hanan grid of the
    net terminals; default [limit] 40. *)
val candidate_set : ?limit:int -> Net.t -> Point.t array

(** [curve ~tech ~candidates ~order net] is the non-inferior solution
    curve of order-respecting routings measured at the driver input
    (source wire and driver gate delay applied).  Raises
    [Invalid_argument] if [order] is not a permutation of the net's
    sinks. *)
val curve :
  tech:Tech.t ->
  ?max_curve:int ->
  ?bbox_slack:float ->
  candidates:Point.t array ->
  order:Order.t ->
  Net.t ->
  Merlin_core.Build.prov Curve.t

(** [route ~tech net] — TSP order, default candidates, best-required-time
    routing tree. *)
val route :
  tech:Tech.t ->
  ?max_curve:int ->
  ?candidates:Point.t array ->
  ?order:Order.t ->
  Net.t ->
  Merlin_rtree.Rtree.t
