(** Partial buffered-routing solutions and the elementary moves of the
    dynamic programs.

    A partial solution couples the geometric routing tree with the
    C-alpha-tree member list of the sinks it covers (in realised order).
    The three moves — extending through a wire, adding a buffer at the
    root, joining two subtrees at a common point — each update the
    (required time, load, area) coordinates per the Elmore / 4-parameter
    models, which is all the curve DP needs. *)

open Merlin_geometry
open Merlin_tech
open Merlin_net
open Merlin_rtree
open Merlin_curves

type t = {
  tree : Rtree.t;
  members : Catree.member list;  (** realised order of covered terminals *)
}

type sol = t Solution.t

(** [of_sink s] is the trivial solution: the sink itself, rooted at the
    sink's own location. *)
val of_sink : Sink.t -> sol

(** [extend_wire tech ~to_ s] re-roots [s] at [to_] through a rectilinear
    wire: required time drops by the Elmore delay of the wire, load grows
    by the wire capacitance.  A zero-length extension re-uses the root. *)
val extend_wire : Tech.t -> to_:Point.t -> sol -> sol

(** [add_root_buffer b s] drives [s] with buffer [b] placed at the root:
    required time drops by the buffer's gate delay at the current load,
    the load becomes the buffer input capacitance, the area grows. *)
val add_root_buffer : Buffer_lib.buffer -> sol -> sol

(** [join at a b] merges two solutions rooted at the same point [at]:
    required time is the minimum, load and area add, member lists
    concatenate in (a, b) order.  Raises [Invalid_argument] if either root
    is elsewhere. *)
val join : Point.t -> sol -> sol -> sol

(** Data-only forms of the moves above: the routing tree and member list
    the move produces from the operands' payloads, without coordinates.
    The batch DP loops pair them with the cost-only twins below,
    building trees only for the points a curve keeps; [join_data]
    raises like [join]. *)

val extend_wire_data : to_:Point.t -> t -> t

val add_root_buffer_data : Buffer_lib.buffer -> t -> t

val join_data : Point.t -> t -> t -> t

(** Cost-only twins of the moves above: the (required time, load, area)
    the move would produce for point [i] of a curve (a join: point [ix]
    of [x] with point [iy] of [y]), computed with the same float
    expressions (so bit-identical), without constructing the routing
    tree.  They read the operands from the curve's columns and write the
    results into a caller-owned {!Curve.Builder.cost} record — flat
    all-float storage, so the hot loops move three floats per candidate
    without allocating a tuple or a {!Solution.t} (DESIGN.md §9).  The
    batch DP loops push the record with {!Curve.Builder.push_cost} and
    materialise trees with the data-only forms, through
    {!Curve.Builder.build_map}, only for the points a curve keeps. *)

val extend_wire_cost_into :
  Curve.Builder.cost -> Tech.t -> to_:Point.t -> t Curve.t -> int -> unit

val add_root_buffer_cost_into :
  Curve.Builder.cost -> Buffer_lib.buffer -> 'a Curve.t -> int -> unit

val join_cost_into :
  Curve.Builder.cost -> 'a Curve.t -> int -> 'b Curve.t -> int -> unit
