open Merlin_geometry
open Merlin_tech
open Merlin_net
open Merlin_rtree
open Merlin_curves

type t = { tree : Rtree.t; members : Catree.member list }

type sol = t Solution.t

let of_sink s =
  Solution.make ~req:s.Sink.req ~load:s.Sink.cap ~area:0.0
    { tree = Rtree.Leaf s; members = [ Catree.Direct s.Sink.id ] }

(* Children of a tree when grafted under a new unbuffered node at the same
   location: splice to avoid stacking zero-length degenerate nodes. *)
let graft_children at tree =
  match tree with
  | Rtree.Node { loc; buffer = None; children } when Point.equal loc at ->
    children
  | Rtree.Leaf _ | Rtree.Node _ -> [ tree ]

(* The data-only forms build each move's tree; the full moves below and
   the batch DP loops, which take the coordinates from the cost-only
   twins further down, both go through them. *)

let extend_wire_data ~to_ data =
  match data.tree with
  | Rtree.Node _ when Point.equal (Rtree.attach_point data.tree) to_ -> data
  | Rtree.Leaf _ | Rtree.Node _ ->
    { data with tree = Rtree.node to_ [ data.tree ] }

let add_root_buffer_data b data =
  let at = Rtree.attach_point data.tree in
  { data with tree = Rtree.node ~buffer:b at (graft_children at data.tree) }

let join_data at a b =
  if not
       (Point.equal (Rtree.attach_point a.tree) at
        && Point.equal (Rtree.attach_point b.tree) at)
  then invalid_arg "Build.join: solutions not rooted at the join point";
  { tree = Rtree.node at (graft_children at a.tree @ graft_children at b.tree);
    members = a.members @ b.members }

let extend_wire tech ~to_ (s : sol) =
  let data = extend_wire_data ~to_ s.Solution.data in
  let from = Rtree.attach_point s.Solution.data.tree in
  if Point.equal from to_ then { s with Solution.data = data }
  else begin
    let len = Point.manhattan from to_ in
    let req = s.Solution.req -. Tech.wire_elmore tech ~len ~load:s.Solution.load in
    let load = s.Solution.load +. Tech.wire_cap tech len in
    Solution.make ~req ~load ~area:s.Solution.area data
  end

let add_root_buffer b (s : sol) =
  let req = s.Solution.req -. Buffer_lib.delay b ~load:s.Solution.load in
  Solution.make ~req ~load:b.Buffer_lib.input_cap
    ~area:(s.Solution.area +. b.Buffer_lib.area)
    (add_root_buffer_data b s.Solution.data)

let join at (a : sol) (b : sol) =
  let data = join_data at a.Solution.data b.Solution.data in
  Solution.make
    ~req:(min a.Solution.req b.Solution.req)
    ~load:(a.Solution.load +. b.Solution.load)
    ~area:(a.Solution.area +. b.Solution.area)
    data

(* Cost-only twins of the three moves, for the batch DP loops: they
   compute the exact (req, load, area) the move would produce — the same
   float expressions, so results are bit-identical — without building the
   routing tree.  They read their operands straight out of a curve's
   columns (point [i] of [c]), so no float is boxed on the way in, and
   write the results into a caller-owned Curve.Builder.cost record (flat
   all-float storage) instead of returning them: non-flambda cannot
   deforest a returned tuple, so a tuple-returning version allocates the
   tuple plus three boxed floats per candidate in the hottest loops of
   the whole program.  The loops push the record with
   Curve.Builder.push_cost and materialise trees with the data-only
   forms, only for the points a curve keeps. *)

(* The wire and buffer delays of the twins, restated from
   Tech.wire_elmore, Tech.wire_cap and Delay_model.delay with the same
   float operations in the same order, so bit-identical.  A call into
   those modules would box the load read out of a column and the delay
   it returns, two floats per candidate: dune's dev profile compiles
   with -opaque, so nothing is inlined across modules.  The test
   [core: build moves = data-only form + cost twin] pins every twin to
   its full move bitwise. *)
let[@inline] wire_cap tech len = tech.Tech.unit_wire_cap *. float_of_int len

let[@inline] wire_elmore tech len load =
  let r = tech.Tech.unit_wire_res *. float_of_int len in
  Tech.ps_per_ohm_ff *. r *. ((wire_cap tech len /. 2.0) +. load)

let[@inline] buffer_delay b load =
  let m = b.Buffer_lib.model in
  let rc = Tech.ps_per_ohm_ff *. m.Delay_model.r_drive *. load in
  m.Delay_model.d0 +. rc +. (m.Delay_model.k_slew *. Delay_model.nominal_slew)

let extend_wire_cost_into (c : Curve.Builder.cost) tech ~to_ (s : t Curve.t) i =
  let req = Float.Array.get s.Curve.req i
  and load = Float.Array.get s.Curve.load i in
  let from = Rtree.attach_point s.Curve.data.(i).tree in
  if Point.equal from to_ then begin
    c.Curve.Builder.creq <- req;
    c.Curve.Builder.cload <- load
  end
  else begin
    let len = Point.manhattan from to_ in
    c.Curve.Builder.creq <- req -. wire_elmore tech len load;
    c.Curve.Builder.cload <- load +. wire_cap tech len
  end;
  c.Curve.Builder.carea <- Float.Array.get s.Curve.area i

let add_root_buffer_cost_into (c : Curve.Builder.cost) b (s : _ Curve.t) i =
  c.Curve.Builder.creq <-
    Float.Array.get s.Curve.req i -. buffer_delay b (Float.Array.get s.Curve.load i);
  c.Curve.Builder.cload <- b.Buffer_lib.input_cap;
  c.Curve.Builder.carea <- Float.Array.get s.Curve.area i +. b.Buffer_lib.area

let join_cost_into (c : Curve.Builder.cost) (x : _ Curve.t) ix (y : _ Curve.t) iy =
  let rx = Float.Array.get x.Curve.req ix and ry = Float.Array.get y.Curve.req iy in
  c.Curve.Builder.creq <- (if rx <= ry then rx else ry);
  c.Curve.Builder.cload <-
    Float.Array.get x.Curve.load ix +. Float.Array.get y.Curve.load iy;
  c.Curve.Builder.carea <-
    Float.Array.get x.Curve.area ix +. Float.Array.get y.Curve.area iy
