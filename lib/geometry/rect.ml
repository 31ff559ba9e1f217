type t = { lo : Point.t; hi : Point.t }

let make a b =
  let lo = Point.make (min a.Point.x b.Point.x) (min a.Point.y b.Point.y) in
  let hi = Point.make (max a.Point.x b.Point.x) (max a.Point.y b.Point.y) in
  { lo; hi }

(* Folds the four extremes as ints, so only the result is allocated. *)
let bounding_box = function
  | [] -> invalid_arg "Rect.bounding_box: empty list"
  | p :: rest ->
    let rec fold lx ly hx hy = function
      | [] -> { lo = Point.make lx ly; hi = Point.make hx hy }
      | q :: rest ->
        let x = q.Point.x and y = q.Point.y in
        fold (Int.min lx x) (Int.min ly y) (Int.max hx x) (Int.max hy y) rest
    in
    fold p.Point.x p.Point.y p.Point.x p.Point.y rest

let width r = r.hi.Point.x - r.lo.Point.x

let height r = r.hi.Point.y - r.lo.Point.y

let half_perimeter r = width r + height r

let contains r p =
  p.Point.x >= r.lo.Point.x && p.Point.x <= r.hi.Point.x
  && p.Point.y >= r.lo.Point.y && p.Point.y <= r.hi.Point.y

let inflate r margin =
  { lo = Point.make (r.lo.Point.x - margin) (r.lo.Point.y - margin);
    hi = Point.make (r.hi.Point.x + margin) (r.hi.Point.y + margin) }

let slack_margin slack half_perimeter =
  1 + int_of_float (slack *. float_of_int half_perimeter)

let inflate_by_slack slack r = inflate r (slack_margin slack (half_perimeter r))
