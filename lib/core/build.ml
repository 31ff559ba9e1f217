open Merlin_geometry
open Merlin_tech
open Merlin_net
open Merlin_rtree
open Merlin_curves

type t = { tree : Rtree.t; members : Catree.member list }

(* A point's provenance: the move that made it and its operands.  Each
   move allocates one block (a wire 3 words, a buffer or a join 4), and
   the operands are shared with the points they came from. *)
type prov =
  | Sink of Sink.t
  | Wire of { at : Point.t; sub : prov }
  | Buffered of { at : Point.t; buffer : Buffer_lib.buffer; sub : prov }
  | Join of { at : Point.t; left : prov; right : prov }
  | Chain of prov

type sol = prov Solution.t

let of_sink s = Solution.make ~req:s.Sink.req ~load:s.Sink.cap ~area:0.0 (Sink s)

let rec root = function
  | Sink s -> s.Sink.pt
  | Wire { at; _ } | Buffered { at; _ } | Join { at; _ } -> at
  | Chain p -> root p

let rec buffered_root = function
  | Buffered _ -> true
  | Chain p -> buffered_root p
  | Sink _ | Wire _ | Join _ -> false

(* Whether the tree of [p] is a bare leaf. *)
let rec leaf = function
  | Sink _ -> true
  | Chain p -> leaf p
  | Wire _ | Buffered _ | Join _ -> false

(* The data-only forms record each move; [extend_wire] below and the
   batch DP loops, which take the coordinates from the cost-only twins
   further down, both go through them.  A wire to a node's own point
   re-uses the node, but a bare leaf is wrapped in a node even over a
   zero-length wire. *)

let extend_wire_data ~to_ p =
  if (not (leaf p)) && Point.equal (root p) to_ then p
  else Wire { at = to_; sub = p }

let add_root_buffer_data b p = Buffered { at = root p; buffer = b; sub = p }

let join_data at a b =
  if not (Point.equal (root a) at && Point.equal (root b) at) then
    invalid_arg "Build.join: solutions not rooted at the join point";
  Join { at; left = a; right = b }

let chain p = Chain p

(* Children of a tree when grafted under a new unbuffered node at the same
   location: splice to avoid stacking zero-length degenerate nodes. *)
let graft_children at tree =
  match tree with
  | Rtree.Node { loc; buffer = None; children } when Point.equal loc at ->
    children
  | Rtree.Leaf _ | Rtree.Node _ -> [ tree ]

let rec tree = function
  | Sink s -> Rtree.Leaf s
  | Wire { at; sub } -> Rtree.node at [ tree sub ]
  | Buffered { at; buffer; sub } ->
    Rtree.node ~buffer at (graft_children at (tree sub))
  | Join { at; left; right } ->
    Rtree.node at
      (graft_children at (tree left) @ graft_children at (tree right))
  | Chain p -> tree p

(* The members of [p] in realised order, in front of [rest]: a join
   lists its left operand's before its right one's, and a chain is one
   member, the level of the members under it. *)
let rec members_onto p rest =
  match p with
  | Sink s -> Catree.Direct s.Sink.id :: rest
  | Wire { sub; _ } | Buffered { sub; _ } -> members_onto sub rest
  | Join { left; right; _ } -> members_onto left (members_onto right rest)
  | Chain p -> Catree.Chain (Catree.level (members_onto p [])) :: rest

let members p = members_onto p []

let materialise p = { tree = tree p; members = members p }

let extend_wire tech ~to_ (s : sol) =
  let data = extend_wire_data ~to_ s.Solution.data in
  let from = root s.Solution.data in
  if Point.equal from to_ then { s with Solution.data = data }
  else begin
    let len = Point.manhattan from to_ in
    let req = s.Solution.req -. Tech.wire_elmore tech ~len ~load:s.Solution.load in
    let load = s.Solution.load +. Tech.wire_cap tech len in
    Solution.make ~req ~load ~area:s.Solution.area data
  end

(* Cost-only twins of the three moves, for the batch DP loops: they
   compute the exact (req, load, area) the move would produce — the same
   float expressions, so results are bit-identical — without recording
   the move.  They read their operands straight out of a curve's
   columns (point [i] of [c]), so no float is boxed on the way in, and
   write the results into a caller-owned Curve.Builder.cost record (flat
   all-float storage) instead of returning them: non-flambda cannot
   deforest a returned tuple, so a tuple-returning version allocates the
   tuple plus three boxed floats per candidate in the hottest loops of
   the whole program.  The loops push the record with
   Curve.Builder.push_cost and record provenance with the data-only
   forms, only for the points a curve keeps. *)

(* The wire and buffer delays of the twins, restated from
   Tech.wire_elmore, Tech.wire_cap and Delay_model.delay with the same
   float operations in the same order, so bit-identical.  A call into
   those modules would box the load read out of a column and the delay
   it returns, two floats per candidate: dune's dev profile compiles
   with -opaque, so nothing is inlined across modules.  The test
   [core: build moves = data-only form + cost twin] pins every twin to
   the eager reference moves of the tests bitwise. *)
let[@inline] wire_cap tech len = tech.Tech.unit_wire_cap *. float_of_int len

let[@inline] wire_elmore tech len load =
  let r = tech.Tech.unit_wire_res *. float_of_int len in
  Tech.ps_per_ohm_ff *. r *. ((wire_cap tech len /. 2.0) +. load)

let[@inline] buffer_delay b load =
  let m = b.Buffer_lib.model in
  let rc = Tech.ps_per_ohm_ff *. m.Delay_model.r_drive *. load in
  m.Delay_model.d0 +. rc +. (m.Delay_model.k_slew *. Delay_model.nominal_slew)

let extend_wire_cost_into (c : Curve.Builder.cost) tech ~to_ (s : prov Curve.t) i =
  let req = Float.Array.get s.Curve.req i
  and load = Float.Array.get s.Curve.load i in
  let from = root s.Curve.data.(i) in
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
