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

let root (s : sol) = Rtree.attach_point s.Solution.data.tree

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

let extend_wire_data ~to_ (s : sol) =
  let data = s.Solution.data in
  match data.tree with
  | Rtree.Node _ when Point.equal (Rtree.attach_point data.tree) to_ -> data
  | Rtree.Leaf _ | Rtree.Node _ ->
    { data with tree = Rtree.node to_ [ data.tree ] }

let add_root_buffer_data b (s : sol) =
  let data = s.Solution.data in
  let at = Rtree.attach_point data.tree in
  { data with tree = Rtree.node ~buffer:b at (graft_children at data.tree) }

let join_data at (a : sol) (b : sol) =
  if not (Point.equal (root a) at && Point.equal (root b) at) then
    invalid_arg "Build.join: solutions not rooted at the join point";
  { tree =
      Rtree.node at
        (graft_children at a.Solution.data.tree
         @ graft_children at b.Solution.data.tree);
    members = a.Solution.data.members @ b.Solution.data.members }

let extend_wire tech ~to_ (s : sol) =
  let data = extend_wire_data ~to_ s in
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
    (add_root_buffer_data b s)

let join at (a : sol) (b : sol) =
  let data = join_data at a b in
  Solution.make
    ~req:(min a.Solution.req b.Solution.req)
    ~load:(a.Solution.load +. b.Solution.load)
    ~area:(a.Solution.area +. b.Solution.area)
    data

(* Cost-only twins of the three moves, for the batch DP loops: they
   compute the exact (req, load, area) the move would produce — the same
   float expressions, so results are bit-identical — without building the
   routing tree.  The results are written into a caller-owned
   Curve.Builder.cost record (flat all-float storage) instead of being
   returned: non-flambda cannot deforest a returned tuple, so a
   tuple-returning version allocates the tuple plus three boxed floats
   per candidate in the hottest loops of the whole program.  The loops
   push the record with Curve.Builder.push_cost and materialise trees
   with the data-only forms, only for the points a curve keeps. *)

let extend_wire_cost_into (c : Curve.Builder.cost) tech ~to_ (s : sol) =
  let from = Rtree.attach_point s.Solution.data.tree in
  if Point.equal from to_ then begin
    c.Curve.Builder.creq <- s.Solution.req;
    c.Curve.Builder.cload <- s.Solution.load;
    c.Curve.Builder.carea <- s.Solution.area
  end
  else begin
    let len = Point.manhattan from to_ in
    c.Curve.Builder.creq <-
      s.Solution.req -. Tech.wire_elmore tech ~len ~load:s.Solution.load;
    c.Curve.Builder.cload <- s.Solution.load +. Tech.wire_cap tech len;
    c.Curve.Builder.carea <- s.Solution.area
  end

let add_root_buffer_cost_into (c : Curve.Builder.cost) b (s : _ Solution.t) =
  c.Curve.Builder.creq <- s.Solution.req -. Buffer_lib.delay b ~load:s.Solution.load;
  c.Curve.Builder.cload <- b.Buffer_lib.input_cap;
  c.Curve.Builder.carea <- s.Solution.area +. b.Buffer_lib.area

let join_cost_into (c : Curve.Builder.cost) (a : _ Solution.t) (b : _ Solution.t) =
  let ra = a.Solution.req and rb = b.Solution.req in
  c.Curve.Builder.creq <- (if ra <= rb then ra else rb);
  c.Curve.Builder.cload <- a.Solution.load +. b.Solution.load;
  c.Curve.Builder.carea <- a.Solution.area +. b.Solution.area
