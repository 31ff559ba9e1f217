(** A point of a three-dimensional solution curve: required time and load
    versus total buffer area (paper Fig. 8), carrying the partial structure
    it stands for.

    The load and required-time dimensions are what make the principle of
    dynamic programming valid for the problem; the area dimension is what
    lets the user trade area against speed (Section I).

    A {!Curve} stores its points as columns; this record is the
    one-point view, built on demand by {!Curve.get} and friends, and the
    form a DP's single solution (a sink, a final pick) takes. *)

type 'a t = {
  req : float;   (** required time at the solution's root, ps — larger is better *)
  load : float;  (** capacitance at the root, fF — smaller is better *)
  area : float;  (** total buffer area, 1000 lambda^2 — smaller is better *)
  data : 'a;     (** the structure (or provenance) this point stands for *)
}

val make : req:float -> load:float -> area:float -> 'a -> 'a t

(** Total order used for deterministic curve layout: decreasing required
    time, then increasing load, then increasing area. *)
val compare_key : 'a t -> 'a t -> int

(** [quantise ~req_grid ~load_grid ~area_grid s] buckets the coordinates
    pessimistically: required time rounded down, load and area up.  A grid
    of 0 leaves that dimension untouched. *)
val quantise :
  req_grid:float -> load_grid:float -> area_grid:float -> 'a t -> 'a t
