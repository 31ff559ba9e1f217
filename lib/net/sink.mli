(** A sink node of a net: position, capacitive load and required time
    (paper Section III.1, item 2). *)

open Merlin_geometry

type t = {
  id : int;           (** stable identifier, unique within a net *)
  pt : Point.t;
  cap : float;        (** capacitive load, fF *)
  req : float;        (** required time, ps *)
}

val make : id:int -> pt:Point.t -> cap:float -> req:float -> t

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
