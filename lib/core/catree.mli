(** C-alpha tree hierarchy descriptors (Definition 2).

    A level of the hierarchy holds its members in sink order; at most one
    member is an internal node (the continuation of the buffer chain,
    Lemma 2) and the branching factor is bounded by alpha.  MERLIN's
    solutions carry this descriptor alongside the geometric routing tree so
    the structural claims of the paper can be checked on every output. *)

type t = { members : member list }

and member =
  | Direct of int  (** a sink id connected directly at this level *)
  | Chain of t     (** the inner sub-group (next link of the chain) *)

(** Single-sink level. *)
val leaf : int -> t

(** [level members] — raises [Invalid_argument] if [members] is empty or
    contains more than one [Chain]. *)
val level : member list -> t

(** Sink ids in hierarchy DFS order — the realised sink order. *)
val sinks_in_order : t -> int list

(** Number of links of the internal-node chain (levels). *)
val depth : t -> int

(** Maximum branching factor over all levels. *)
val max_branching : t -> int

(** [well_formed ~alpha t] checks Definition 2: at most one internal child
    per level and branching factor at most [alpha]. *)
val well_formed : alpha:int -> t -> bool

val pp : Format.formatter -> t -> unit
