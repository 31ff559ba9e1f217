(** Axis-aligned rectangles (bounding boxes) on the grid. *)

type t = { lo : Point.t; hi : Point.t }

(** [make a b] normalises so that [lo] is the componentwise minimum. *)
val make : Point.t -> Point.t -> t

(** [bounding_box pts] is the smallest rectangle containing every point.
    Raises [Invalid_argument] on the empty list. *)
val bounding_box : Point.t list -> t

val width : t -> int

(** [half_perimeter r] is width + height — the HPWL lower bound on the
    wirelength of any rectilinear tree spanning the box corners. *)
val half_perimeter : t -> int

val contains : t -> Point.t -> bool

(** [inflate r margin] grows the rectangle by [margin] on every side. *)
val inflate : t -> int -> t

(** [slack_margin slack hp] is one plus [slack] times [hp], rounded
    down: the margin {!inflate_by_slack} grows a box of half perimeter
    [hp] by, for callers that fold a box in ints. *)
val slack_margin : float -> int -> int

(** [inflate_by_slack slack r] grows [r] on every side by
    [slack_margin slack (half_perimeter r)]: the box a \*PTREE cell or a
    MERLIN merge offers candidates in. *)
val inflate_by_slack : float -> t -> t
