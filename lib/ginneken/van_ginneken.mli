(** Buffer insertion on a fixed routing tree — van Ginneken's algorithm
    [Gi90], the buffering phase of the paper's Setup/Flow II.

    A single bottom-up pass over the RC tree propagates non-inferior
    (required time, load) curves, considering a buffer from the library at
    every internal node; the total-buffer-area dimension is carried along
    exactly as in the rest of this repository, so the result is a full
    three-dimensional trade-off curve rather than the classical single
    optimum.  Long edges can be subdivided first ({!Merlin_rtree.Rtree.refine})
    to create interior insertion sites. *)

open Merlin_tech
open Merlin_net
open Merlin_rtree
open Merlin_curves

(** [curve ~tech ~buffers ?trials ?max_curve ?refine_seg tree] is the
    curve of buffered variants of [tree], measured at the tree's
    attachment point.  [refine_seg] (grid units) subdivides longer edges to
    create insertion sites; [None] inserts only at existing internal
    nodes.  [trials] bounds the buffers tried per site (evenly spaced over
    the library; default: the whole library). *)
val curve :
  tech:Tech.t ->
  buffers:Buffer_lib.t ->
  ?trials:int ->
  ?max_curve:int ->
  ?refine_seg:int ->
  Rtree.t ->
  Merlin_core.Build.prov Curve.t

(** [insert ~tech ~buffers ~driver ?refine_seg net tree] buffers [tree]
    (which must be rooted at the net source) to maximise the required time
    at the driver input. *)
val insert :
  tech:Tech.t ->
  buffers:Buffer_lib.t ->
  ?trials:int ->
  ?max_curve:int ->
  ?refine_seg:int ->
  Net.t ->
  Rtree.t ->
  Rtree.t
