(** Partial buffered-routing solutions and the elementary moves of the
    dynamic programs.

    A point of a DP curve carries its provenance ({!prov}): the move
    that made it and the provenance of its operands.  The three moves
    — extending through a wire, adding a buffer at the root, joining
    two subtrees at a common point — each record one small block
    ({!extend_wire_data}, {!add_root_buffer_data}, {!join_data}) and
    update the (required time, load, area) coordinates per the Elmore /
    4-parameter models (the [*_cost_into] twins), which is all the
    curve DP reads.  The geometric routing tree and the C-alpha-tree
    member list of a point ({!t}) are built from its provenance only
    where they are read: {!materialise} at a construction's extraction,
    {!tree} on the one answer of PTREE and van Ginneken (DESIGN.md §9
    "Provenance payloads"). *)

open Merlin_geometry
open Merlin_tech
open Merlin_net
open Merlin_rtree
open Merlin_curves

(** A built solution's payload. *)
type t = {
  tree : Rtree.t;
  members : Catree.member list;  (** realised order of covered terminals *)
}

(** How a DP point was made.  Operands are shared with the points they
    came from, so a point costs one block whatever its tree's size. *)
type prov =
  | Sink of Sink.t  (** the sink itself, rooted at its own location *)
  | Wire of { at : Point.t; sub : prov }  (** [sub] wired to [at] *)
  | Buffered of { at : Point.t; buffer : Buffer_lib.buffer; sub : prov }
      (** [sub] driven by [buffer] at its own root [at] *)
  | Join of { at : Point.t; left : prov; right : prov }
      (** two subtrees rooted at [at], [left]'s members first *)
  | Chain of prov
      (** a closed sub-group: one C-alpha chain member, same tree *)

type sol = prov Solution.t

(** [of_sink s] is the trivial solution: the sink itself, rooted at the
    sink's own location. *)
val of_sink : Sink.t -> sol

(** [extend_wire tech ~to_ s] re-roots [s] at [to_] through a rectilinear
    wire: required time drops by the Elmore delay of the wire, load grows
    by the wire capacitance.  A zero-length extension re-uses the root. *)
val extend_wire : Tech.t -> to_:Point.t -> sol -> sol

(** The point the tree of a provenance is rooted at. *)
val root : prov -> Point.t

(** Whether the root of the tree holds a buffer. *)
val buffered_root : prov -> bool

(** Data-only forms of the moves: the provenance a move produces from
    its operands', without coordinates.  Each allocates one block: a
    wire 3 words, a buffer or a join 4.  [extend_wire_data] returns its
    operand when the operand's tree is a node already rooted at [to_]
    (a bare sink is wrapped even over a zero-length wire).  [join_data]
    raises [Invalid_argument] if either operand is rooted elsewhere. *)

val extend_wire_data : to_:Point.t -> prov -> prov

val add_root_buffer_data : Buffer_lib.buffer -> prov -> prov

val join_data : Point.t -> prov -> prov -> prov

(** [chain p] closes the sub-group [p] for the enclosing level: its
    tree is [p]'s, its members one chain member. *)
val chain : prov -> prov

(** [tree p] builds the routing tree of [p].  A buffer or a join
    splices the children of an unbuffered operand node at its own point
    instead of stacking a zero-length node. *)
val tree : prov -> Rtree.t

(** [members p] lists the C-alpha members of [p] in realised order; a
    chain member holds {!Catree.level} of the members under it, so a
    level with two chains raises [Invalid_argument] here. *)
val members : prov -> Catree.member list

(** [materialise p] is [{ tree = tree p; members = members p }]. *)
val materialise : prov -> t

(** Cost-only twins of the moves: the (required time, load, area) the
    move produces for point [i] of a curve (a join: point [ix] of [x]
    with point [iy] of [y]), computed with the same float expressions
    as {!extend_wire} and the reference moves of the tests (so
    bit-identical).  They read the operands from the curve's columns
    and write the results into a caller-owned {!Curve.Builder.cost}
    record — flat all-float storage, so the hot loops move three floats
    per candidate without allocating a tuple or a {!Solution.t}
    (DESIGN.md §9).  The batch DP loops push the record with
    {!Curve.Builder.push_cost} and record provenance with the data-only
    forms, through {!Curve.Builder.build_map}, only for the points a
    curve keeps. *)

val extend_wire_cost_into :
  Curve.Builder.cost -> Tech.t -> to_:Point.t -> prov Curve.t -> int -> unit

val add_root_buffer_cost_into :
  Curve.Builder.cost -> Buffer_lib.buffer -> 'a Curve.t -> int -> unit

val join_cost_into :
  Curve.Builder.cost -> 'a Curve.t -> int -> 'b Curve.t -> int -> unit
