(** Process technology constants.

    Units used throughout the library:
    - distance: grid units (lambda) — integers, see {!Merlin_geometry.Point}
    - resistance: ohm
    - capacitance: femtofarad (fF)
    - time: picosecond (ps); note ohm * fF = 1e-15 ohm*F = 1e-3 ps, the
      conversion is folded into {!wire_delay_factor}
    - area: units of 1000 lambda^2, matching the paper's tables.

    The default process is a synthetic 0.35um-class profile calibrated so
    that the interconnect delay across a Table-1-style bounding box is of
    the same order as a gate delay, which is exactly how the paper sizes
    its experiments (Section IV). *)

type t = {
  name : string;
  unit_wire_res : float;  (** ohm per grid unit *)
  unit_wire_cap : float;  (** fF per grid unit *)
  unit_wire_area : float; (** 1000 lambda^2 of routing area per grid unit *)
}

(** Synthetic 0.35um-class default process. *)
val default : t

(** [ps_per_ohm_ff] converts ohm*fF products to picoseconds (1e-3). *)
val ps_per_ohm_ff : float

(** [wire_cap t len] is the total capacitance of a wire of [len] grid
    units. *)
val wire_cap : t -> int -> float

(** [wire_elmore t ~len ~load] is the Elmore delay (ps) of a uniform wire
    of [len] grid units driving [load] fF:
    R_w * (C_w / 2 + load) scaled to ps. *)
val wire_elmore : t -> len:int -> load:float -> float
