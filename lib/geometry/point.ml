type t = { x : int; y : int }

let make x y = { x; y }

let origin = { x = 0; y = 0 }

let equal a b = a.x = b.x && a.y = b.y

let compare a b =
  let c = Int.compare a.x b.x in
  if c <> 0 then c else Int.compare a.y b.y

let manhattan a b = abs (a.x - b.x) + abs (a.y - b.y)

let add a b = { x = a.x + b.x; y = a.y + b.y }

(* Floor division: truncation rounds toward zero, so a point set moved
   into negative coordinates would get a center off by one. *)
let floor_div a n =
  let q = a / n in
  if a mod n < 0 then q - 1 else q

let center_of_mass = function
  | [] -> invalid_arg "Point.center_of_mass: empty list"
  | pts ->
    let n = List.length pts in
    let sx = List.fold_left (fun acc p -> acc + p.x) 0 pts in
    let sy = List.fold_left (fun acc p -> acc + p.y) 0 pts in
    { x = floor_div sx n; y = floor_div sy n }

let l_corner a b = { x = b.x; y = a.y }

let pp ppf p = Format.fprintf ppf "(%d,%d)" p.x p.y

let to_string p = Format.asprintf "%a" pp p
