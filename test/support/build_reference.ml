open Merlin_geometry
open Merlin_tech
open Merlin_net
open Merlin_rtree
open Merlin_curves
open Merlin_core

type sol = Build.t Solution.t

let of_sink s =
  Solution.make ~req:s.Sink.req ~load:s.Sink.cap ~area:0.0
    { Build.tree = Rtree.Leaf s; members = [ Catree.Direct s.Sink.id ] }

(* Children of a tree when grafted under a new unbuffered node at the same
   location: splice to avoid stacking zero-length degenerate nodes. *)
let graft_children at tree =
  match tree with
  | Rtree.Node { loc; buffer = None; children } when Point.equal loc at ->
    children
  | Rtree.Leaf _ | Rtree.Node _ -> [ tree ]

let extend_wire_data ~to_ (data : Build.t) =
  match data.Build.tree with
  | Rtree.Node _ when Point.equal (Rtree.attach_point data.Build.tree) to_ ->
    data
  | Rtree.Leaf _ | Rtree.Node _ ->
    { data with Build.tree = Rtree.node to_ [ data.Build.tree ] }

let add_root_buffer_data b (data : Build.t) =
  let at = Rtree.attach_point data.Build.tree in
  { data with
    Build.tree = Rtree.node ~buffer:b at (graft_children at data.Build.tree) }

let join_data at (a : Build.t) (b : Build.t) =
  if not
       (Point.equal (Rtree.attach_point a.Build.tree) at
        && Point.equal (Rtree.attach_point b.Build.tree) at)
  then invalid_arg "Build.join: solutions not rooted at the join point";
  { Build.tree =
      Rtree.node at
        (graft_children at a.Build.tree @ graft_children at b.Build.tree);
    members = a.Build.members @ b.Build.members }

let chain (data : Build.t) =
  { data with
    Build.members = [ Catree.Chain (Catree.level data.Build.members) ] }

let extend_wire tech ~to_ (s : sol) =
  let data = extend_wire_data ~to_ s.Solution.data in
  let from = Rtree.attach_point s.Solution.data.Build.tree in
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
