type t = { lo : Point.t; hi : Point.t }

let make a b =
  let lo = Point.make (min a.Point.x b.Point.x) (min a.Point.y b.Point.y) in
  let hi = Point.make (max a.Point.x b.Point.x) (max a.Point.y b.Point.y) in
  { lo; hi }

let bounding_box = function
  | [] -> invalid_arg "Rect.bounding_box: empty list"
  | p :: rest ->
    let expand acc q = make (Point.make (min acc.lo.Point.x q.Point.x) (min acc.lo.Point.y q.Point.y))
        (Point.make (max acc.hi.Point.x q.Point.x) (max acc.hi.Point.y q.Point.y))
    in
    List.fold_left expand (make p p) rest

let width r = r.hi.Point.x - r.lo.Point.x

let height r = r.hi.Point.y - r.lo.Point.y

let half_perimeter r = width r + height r

let contains r p =
  p.Point.x >= r.lo.Point.x && p.Point.x <= r.hi.Point.x
  && p.Point.y >= r.lo.Point.y && p.Point.y <= r.hi.Point.y

let inflate r margin =
  { lo = Point.make (r.lo.Point.x - margin) (r.lo.Point.y - margin);
    hi = Point.make (r.hi.Point.x + margin) (r.hi.Point.y + margin) }

let inflate_by_slack slack r =
  inflate r (1 + int_of_float (slack *. float_of_int (half_perimeter r)))
