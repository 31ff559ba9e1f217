(** Buffered rectilinear routing trees.

    A tree connects a root attachment point down to sink leaves.  Every
    internal node sits at a grid point and may carry a buffer; the wire
    between a node and each child is the rectilinear (L-shaped) route
    between their locations, so its electrical length is the Manhattan
    distance.  This single structure represents the output of every
    algorithm in the repository: P_Trees, LT-Trees after embedding,
    van-Ginneken-buffered trees and MERLIN's *P_Tree/C-alpha hierarchies. *)

open Merlin_geometry
open Merlin_tech
open Merlin_net

type t =
  | Leaf of Sink.t
  | Node of node

and node = {
  loc : Point.t;
  buffer : Buffer_lib.buffer option;
  children : t list;  (** nonempty; order is meaningful (sink order) *)
}

(** [node ?buffer loc children] — raises [Invalid_argument] on an empty
    child list. *)
val node : ?buffer:Buffer_lib.buffer -> Point.t -> t list -> t

val leaf : Sink.t -> t

(** The point where a parent wire attaches to this subtree. *)
val attach_point : t -> Point.t

(** Sinks in left-to-right depth-first order — the realised sink order of
    the structure (cf. the paper's SINK_ORDER in Fig. 14). *)
val sinks_in_order : t -> Sink.t list

val sink_ids_in_order : t -> int list

val n_buffers : t -> int

(** Total buffer area (1000 lambda^2). *)
val buffer_area : t -> float

(** Total wirelength in grid units (edges between node locations; the root
    attachment wire is not included since the tree does not know its
    driver). *)
val wirelength : t -> int

val n_nodes : t -> int

(** [refine ~max_seg tree] subdivides every edge longer than [max_seg]
    grid units by inserting unbuffered degree-1 nodes along the L-shaped
    route, preserving total wirelength.  Used to create interior buffer
    sites for van Ginneken style insertion.  Raises [Invalid_argument] if
    [max_seg < 1]. *)
val refine : max_seg:int -> t -> t

val pp : Format.formatter -> t -> unit
