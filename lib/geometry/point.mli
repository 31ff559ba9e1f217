(** Integer grid points on the layout plane.

    Coordinates are in abstract grid units (lambda).  All routing in this
    library is rectilinear, so the only metric that matters is the Manhattan
    (L1) distance. *)

type t = { x : int; y : int }

val make : int -> int -> t

val origin : t

val equal : t -> t -> bool

val compare : t -> t -> int

(** [manhattan a b] is the L1 distance |ax-bx| + |ay-by|. *)
val manhattan : t -> t -> int

(** [add a b] is componentwise sum. *)
val add : t -> t -> t

(** [center_of_mass pts] is the componentwise average, rounded down
    (floor division), so translating every point translates the center
    by the same offset.  Raises [Invalid_argument] on the empty list. *)
val center_of_mass : t list -> t

(** [l_corner a b] is the corner point of the lower L-shaped rectilinear
    route from [a] to [b] (horizontal first). *)
val l_corner : t -> t -> t

val pp : Format.formatter -> t -> unit

val to_string : t -> string
