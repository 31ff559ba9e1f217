(** Buffer library.

    The paper uses an industrial 0.35um standard-cell library containing 34
    buffers of different strengths.  We build a synthetic family with the
    same cardinality: drive strength grows geometrically while input
    capacitance and cell area grow with the strength, the trade-off that
    makes buffer selection a real optimization problem. *)

type buffer = {
  name : string;
  area : float;       (** cell area, 1000 lambda^2 *)
  input_cap : float;  (** fF *)
  model : Delay_model.t;
}

type t = buffer array

(** [delay b ~load] is the delay through buffer [b] driving [load] fF at
    nominal slew. *)
val delay : buffer -> load:float -> float

(** The 34-buffer synthetic library of the default process. *)
val default : t

(** [synthetic ~n] builds a graded library of [n] buffers.
    Raises [Invalid_argument] if [n < 1]. *)
val synthetic : n:int -> t

(** [subset lib ~trials] is an evenly spaced subset of [trials] buffers
    of [lib] in library order, or [lib] itself when it holds no more:
    the buffers the DPs try at each root.  The library is a graded
    single-parameter family, so a spread of strengths loses little. *)
val subset : t -> trials:int -> t

(** Smallest-input-cap buffer of a library (used as a unit inverter
    stand-in).  Raises [Invalid_argument] on an empty library. *)
val weakest : t -> buffer

(** Strongest (lowest drive resistance) buffer. *)
val strongest : t -> buffer
