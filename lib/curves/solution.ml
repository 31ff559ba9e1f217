type 'a t = { req : float; load : float; area : float; data : 'a }

let make ~req ~load ~area data = { req; load; area; data }

let compare_key s1 s2 =
  let c = Float.compare s2.req s1.req in
  if c <> 0 then c
  else
    let c = Float.compare s1.load s2.load in
    if c <> 0 then c else Float.compare s1.area s2.area

(* Scalar bucketing: [grid_down] rounds down to a multiple of the grid
   (required time), [grid_up] rounds up (load, area); a grid of 0 is the
   identity. *)
let grid_down grid v = if grid = 0.0 then v else floor (v /. grid) *. grid

let grid_up grid v = if grid = 0.0 then v else ceil (v /. grid) *. grid

let quantise ~req_grid ~load_grid ~area_grid s =
  { s with
    req = grid_down req_grid s.req;
    load = grid_up load_grid s.load;
    area = grid_up area_grid s.area }
