open Merlin_geometry
open Merlin_tech
open Merlin_net
open Merlin_rtree
open Merlin_curves
open Merlin_order
open Merlin_core

let tech = Tech.default
let buffers = Buffer_lib.default

(* Small configuration so core tests stay fast. *)
let tiny_cfg =
  { Config.default with
    Config.candidate_limit = 10;
    max_curve = 6;
    buffer_trials = 5;
    max_iters = 3 }

let mk_net n seed = Net_gen.random_net ~seed ~name:"core" ~n tech

(* ---------- Grouping ---------- *)

let test_stretch () =
  Alcotest.(check (list int)) "Fig 10" [ 0; 1; 1; 2 ]
    (List.map Grouping.stretch Grouping.all)

let test_covered_fig13 () =
  (* len = 4, r = 9 (0-based positions). *)
  let cov e = Grouping.covered ~r:9 ~len:4 e in
  Alcotest.(check (list int)) "chi0" [ 6; 7; 8; 9 ] (cov Grouping.Chi0);
  Alcotest.(check (list int)) "chi1 skips r-1" [ 5; 6; 7; 9 ] (cov Grouping.Chi1);
  Alcotest.(check (list int)) "chi2 skips second slot" [ 5; 7; 8; 9 ] (cov Grouping.Chi2);
  Alcotest.(check (list int)) "chi3 skips both" [ 4; 6; 7; 9 ] (cov Grouping.Chi3)

let test_covered_len1 () =
  Alcotest.(check (list int)) "chi0" [ 9 ] (Grouping.covered ~r:9 ~len:1 Grouping.Chi0);
  Alcotest.(check (list int)) "chi1" [ 9 ] (Grouping.covered ~r:9 ~len:1 Grouping.Chi1);
  Alcotest.(check (list int)) "chi2" [ 8 ] (Grouping.covered ~r:9 ~len:1 Grouping.Chi2);
  Alcotest.(check bool) "chi3 invalid at len 1" false
    (Grouping.valid ~len:1 Grouping.Chi3)

let test_slots_partition () =
  (* Window slots are exactly covered + skipped. *)
  List.iter
    (fun e ->
       List.iter
         (fun len ->
            if Grouping.valid ~len e then begin
              let r = 20 in
              let start = Grouping.window_start ~r ~len e in
              let slots = List.init (len + Grouping.stretch e) (fun i -> start + i) in
              let covered = Grouping.covered ~r ~len e in
              let skipped =
                Option.to_list (Grouping.skipped_left ~r ~len e)
                @ Option.to_list (Grouping.skipped_right ~r ~len e)
              in
              Alcotest.(check (list int))
                (Format.asprintf "%a len=%d" Grouping.pp e len)
                slots
                (List.sort Int.compare (covered @ skipped));
              Alcotest.(check int) "covered count" len (List.length covered)
            end)
         [ 1; 2; 3; 5 ])
    Grouping.all

(* ---------- Catree ---------- *)

let test_catree_basics () =
  let t =
    Catree.level
      [ Catree.Direct 0;
        Catree.Chain (Catree.level [ Catree.Direct 1; Catree.Direct 2 ]);
        Catree.Direct 3 ]
  in
  Alcotest.(check (list int)) "dfs order" [ 0; 1; 2; 3 ] (Catree.sinks_in_order t);
  Alcotest.(check int) "depth" 2 (Catree.depth t);
  Alcotest.(check int) "branching" 3 (Catree.max_branching t);
  Alcotest.(check bool) "well formed alpha 3" true (Catree.well_formed ~alpha:3 t);
  Alcotest.(check bool) "not well formed alpha 2" false (Catree.well_formed ~alpha:2 t);
  Alcotest.check_raises "two chains"
    (Invalid_argument "Catree.level: more than one internal child") (fun () ->
        ignore
          (Catree.level
             [ Catree.Chain (Catree.leaf 0); Catree.Chain (Catree.leaf 1) ]))

(* ---------- Objective ---------- *)

let test_objective () =
  let sol r a = Solution.make ~req:r ~load:1.0 ~area:a () in
  let c = Test_curves.of_list [ sol 10.0 8.0; sol 6.0 3.0; sol 2.0 1.0 ] in
  let req o = (Option.get (Objective.choose o c)).Solution.req in
  Alcotest.(check (float 0.0)) "best req" 10.0 (req Objective.Best_req);
  Alcotest.(check (float 0.0)) "variant I" 6.0
    (req (Objective.Max_req_under_area 5.0));
  Alcotest.(check (float 0.0)) "variant II picks min area" 1.0
    (Option.get (Objective.choose (Objective.Min_area_over_req 1.0) c)).Solution.area;
  Alcotest.(check bool) "infeasible" true
    (Option.is_none (Objective.choose (Objective.Max_req_under_area 0.5) c))

(* ---------- Star_ptree ---------- *)

let star_run net terminals =
  let candidates = Bubble_construct.candidate_set tiny_cfg net in
  let active = Array.init (Array.length candidates) (fun i -> i) in
  Star_ptree.run_in
    (Star_ptree.context ~tech ~buffers ~trials:5 ~max_curve:8
       ~quant:(0.0, 0.0, 0.0) ~bbox_slack:0.4 ~candidates ())
    ~active ~terminals

let test_star_single_sink () =
  let net = mk_net 3 1 in
  let out = star_run net [| Star_ptree.Sink_term (Net.sink net 0) |] in
  Array.iter
    (fun curve ->
       Curve.iter
         (fun sol ->
            let tree = sol.Solution.data.Build.tree in
            Alcotest.(check (list int)) "covers sink 0" [ 0 ]
              (Rtree.sink_ids_in_order tree))
         curve)
    out;
  Alcotest.(check bool) "some curve nonempty" true
    (Array.exists (fun c -> not (Curve.is_empty c)) out)

let test_star_order_preserved () =
  let net = mk_net 4 2 in
  let terminals =
    Array.map (fun s -> Star_ptree.Sink_term s) net.Net.sinks
  in
  let out = star_run net terminals in
  Array.iter
    (fun curve ->
       Curve.iter
         (fun sol ->
            Alcotest.(check (list int)) "terminal order preserved" [ 0; 1; 2; 3 ]
              (Rtree.sink_ids_in_order sol.Solution.data.Build.tree))
         curve)
    out

let test_star_internal_consistency () =
  (* Engine coordinates without quantisation match the evaluator. *)
  let net = mk_net 3 5 in
  let terminals = Array.map (fun s -> Star_ptree.Sink_term s) net.Net.sinks in
  let out = star_run net terminals in
  Array.iter
    (fun curve ->
       Curve.iter
         (fun sol ->
            let ev = Eval.subtree tech sol.Solution.data.Build.tree in
            Alcotest.(check (float 1e-6)) "req" ev.Eval.req sol.Solution.req;
            Alcotest.(check (float 1e-6)) "load" ev.Eval.load sol.Solution.load;
            Alcotest.(check (float 1e-6)) "area" ev.Eval.buf_area sol.Solution.area)
         curve)
    out

(* Structural equality of the trees a solution carries: sinks by id
   (one net), buffers by cell name. *)
let rec rtree_equal a b =
  match (a, b) with
  | Rtree.Leaf s, Rtree.Leaf s' -> Int.equal s.Sink.id s'.Sink.id
  | Rtree.Node n, Rtree.Node n' ->
    Point.equal n.Rtree.loc n'.Rtree.loc
    && Option.equal
         (fun (x : Buffer_lib.buffer) (y : Buffer_lib.buffer) ->
            String.equal x.Buffer_lib.name y.Buffer_lib.name)
         n.Rtree.buffer n'.Rtree.buffer
    && List.equal rtree_equal n.Rtree.children n'.Rtree.children
  | Rtree.Leaf _, Rtree.Node _ | Rtree.Node _, Rtree.Leaf _ -> false

let rec member_equal a b =
  match (a, b) with
  | Catree.Direct i, Catree.Direct j -> Int.equal i j
  | Catree.Chain t, Catree.Chain u ->
    List.equal member_equal t.Catree.members u.Catree.members
  | Catree.Direct _, Catree.Chain _ | Catree.Chain _, Catree.Direct _ -> false

(* Runs through one shared context must equal runs each on a fresh
   context: random call sequences over one net with overlapping
   windows, sinks mixed with shared sub-groups, varying active sets and
   evictions between calls. *)
let prop_star_context_memo (seed, script) =
  let rng = Random.State.make [| script |] in
  let n = 4 + Random.State.int rng 3 in
  let net = mk_net n seed in
  let candidates = Bubble_construct.candidate_set tiny_cfg net in
  let k = Array.length candidates in
  let fresh () =
    Star_ptree.context ~tech ~buffers ~trials:3 ~max_curve:6
      ~quant:(0.0, 0.0, 0.0) ~bbox_slack:0.4 ~candidates ()
  in
  let run ~active terminals = Star_ptree.run_in (fresh ()) ~active ~terminals in
  (* Active sets: a random anchor first (the source convention), then a
     random subset of the other candidates in index order.  Calls draw
     from a few per case, so cells recur and the memo is hit. *)
  let random_active () =
    let first = Random.State.int rng k in
    let rest =
      List.filter
        (fun p -> p <> first && Random.State.int rng 3 > 0)
        (List.init k (fun p -> p))
    in
    Array.of_list (first :: rest)
  in
  let ctx = fresh () in
  let all = Array.init k (fun p -> p) in
  let new_sub () =
    let lo = Random.State.int rng (n - 1) in
    Star_ptree.sub
      (run ~active:all
         [| Star_ptree.Sink_term (Net.sink net lo);
            Star_ptree.Sink_term (Net.sink net (lo + 1)) |])
  in
  let subs = [| new_sub (); new_sub () |] in
  let actives = Array.init 3 (fun _ -> random_active ()) in
  let called = ref [] in
  let same_curve a b =
    Curve.size a = Curve.size b
    && List.for_all2
         (fun (x : Build.t Solution.t) (y : Build.t Solution.t) ->
            Float.equal x.Solution.req y.Solution.req
            && Float.equal x.Solution.load y.Solution.load
            && Float.equal x.Solution.area y.Solution.area
            && rtree_equal x.Solution.data.Build.tree y.Solution.data.Build.tree
            && List.equal member_equal x.Solution.data.Build.members
                 y.Solution.data.Build.members)
         (Curve.to_list a) (Curve.to_list b)
  in
  List.for_all
    (fun _ ->
       (* Eviction between calls: drop a run of an earlier call's
          terminals, and sometimes swap in a fresh sub-group. *)
       if Random.State.int rng 4 = 0 then begin
         (match !called with
          | [] -> ()
          | terms :: _ ->
            let m = Array.length terms in
            let i = Random.State.int rng m in
            let j = i + Random.State.int rng (m - i) in
            Star_ptree.drop ctx (Array.sub terms i (j - i + 1)));
         if Random.State.bool rng then
           subs.(Random.State.int rng 2) <- new_sub ()
       end;
       let len = 1 + Random.State.int rng (min 4 n) in
       let start = Random.State.int rng (n - len + 1) in
       let sinks =
         List.init len (fun i -> Star_ptree.Sink_term (Net.sink net (start + i)))
       in
       let terminals =
         match Random.State.int rng 3 with
         | 0 -> sinks
         | _ ->
           let at = Random.State.int rng (len + 1) in
           List.filteri (fun i _ -> i < at) sinks
           @ [ Star_ptree.Sub_term subs.(Random.State.int rng 2) ]
           @ List.filteri (fun i _ -> i >= at) sinks
       in
       let terminals = Array.of_list terminals in
       called := terminals :: !called;
       let active = actives.(Random.State.int rng 3) in
       let memo = Star_ptree.run_in ctx ~active ~terminals in
       let fresh = run ~active terminals in
       Array.length memo = k && Array.for_all2 same_curve memo fresh)
    (List.init 10 (fun i -> i))

(* Each full move of Build must be its data-only form paired with its
   cost-only twin: the same tree and member list, and bitwise the same
   coordinates.  The batch DP loops build curves from the two halves, so
   a drift between them would change what they keep. *)
let prop_build_moves_split seed =
  let rng = Random.State.make [| seed |] in
  let net = mk_net 6 seed in
  let cost = Curve.Builder.new_cost () in
  let same_bits x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y) in
  let same_cost (s : Build.sol) =
    same_bits cost.Curve.Builder.creq s.Solution.req
    && same_bits cost.Curve.Builder.cload s.Solution.load
    && same_bits cost.Curve.Builder.carea s.Solution.area
  in
  let same_data (d : Build.t) (s : Build.sol) =
    rtree_equal d.Build.tree s.Solution.data.Build.tree
    && List.equal member_equal d.Build.members s.Solution.data.Build.members
  in
  let random_point () =
    let at s = Rtree.attach_point s.Solution.data.Build.tree in
    let s = Net.sink net (Random.State.int rng 6) in
    match Random.State.int rng 3 with
    | 0 -> at (Build.of_sink s)
    | _ ->
      Point.make
        (s.Sink.pt.Point.x + Random.State.int rng 200)
        (s.Sink.pt.Point.y + Random.State.int rng 200)
  in
  let extend s =
    let to_ = random_point () in
    let full = Build.extend_wire tech ~to_ s in
    Build.extend_wire_cost_into cost tech ~to_ (Curve.singleton s) 0;
    (full,
     same_cost full && same_data (Build.extend_wire_data ~to_ s.Solution.data) full)
  in
  let buffer s =
    let b = buffers.(Random.State.int rng (Array.length buffers)) in
    let full = Build.add_root_buffer b s in
    Build.add_root_buffer_cost_into cost b (Curve.singleton s) 0;
    (full,
     same_cost full && same_data (Build.add_root_buffer_data b s.Solution.data) full)
  in
  let join a b =
    let at = random_point () in
    let a = Build.extend_wire tech ~to_:at a
    and b = Build.extend_wire tech ~to_:at b in
    let full = Build.join at a b in
    Build.join_cost_into cost (Curve.singleton a) 0 (Curve.singleton b) 0;
    (full,
     same_cost full
     && same_data (Build.join_data at a.Solution.data b.Solution.data) full)
  in
  (* A random walk of moves over solutions grown from the net's sinks,
     so the moves also meet buffered roots and earlier joins. *)
  let pool = Array.init 6 (fun i -> Build.of_sink (Net.sink net i)) in
  List.for_all
    (fun _ ->
       let i = Random.State.int rng 6 in
       let s, ok =
         match Random.State.int rng 3 with
         | 0 -> extend pool.(i)
         | 1 -> buffer pool.(i)
         | _ -> join pool.(i) pool.(Random.State.int rng 6)
       in
       pool.(i) <- s;
       ok)
    (List.init 30 (fun i -> i))

(* ---------- *PTREE candidate pre-filters ---------- *)

(* Push grids: none, fine, the default, and coarse enough that many
   distinct candidates quantise to the same cost. *)
let prefilter_grids =
  [| (0.0, 0.0, 0.0); (0.5, 0.25, 0.5); (10.0, 10.0, 8.0);
     (50.0, 40.0, 30.0); (200.0, 100.0, 60.0) |]

(* A random curve of width 1-[width]: up to 24 points pruned and capped
   by the builder, so it is a real frontier.  Required time grows with
   load (plus noise) so frontiers come out wide; [flat] curves have area
   0 (PTREE's regime); [lattice] coordinates are small multiples, so sums
   tie exactly; and half the curves sit on the push grid already, as the
   DP's curves do. *)
let random_curve rng ~width ~flat ~lattice (req_grid, load_grid, area_grid)
    data =
  let bld = Curve.Builder.create () in
  let draw hi =
    if lattice then Float.of_int (Random.State.int rng 20) *. hi /. 20.0
    else Random.State.float rng hi
  in
  let on_grid = Random.State.bool rng in
  for i = 0 to Random.State.int rng 24 do
    let load = 1.0 +. draw 200.0 in
    let s =
      Solution.make ~req:((8.0 *. load) +. draw 600.0) ~load
        ~area:(if flat then 0.0 else draw 100.0) (data i)
    in
    let s =
      if on_grid then Solution.quantise ~req_grid ~load_grid ~area_grid s
      else s
    in
    Curve.Builder.add bld s
  done;
  Curve.Builder.build ~max_size:width bld

(* Bitwise coordinates, equal trees and members, in the same order. *)
let same_points x y =
  let bits = Int64.bits_of_float in
  Curve.size x = Curve.size y
  && List.for_all2
       (fun (s : Build.sol) (t : Build.sol) ->
          Int64.equal (bits s.Solution.req) (bits t.Solution.req)
          && Int64.equal (bits s.Solution.load) (bits t.Solution.load)
          && Int64.equal (bits s.Solution.area) (bits t.Solution.area)
          && rtree_equal s.Solution.data.Build.tree t.Solution.data.Build.tree
          && List.equal member_equal s.Solution.data.Build.members
               t.Solution.data.Build.members)
       (Curve.to_list x) (Curve.to_list y)

let push_quantised bld (req_grid, load_grid, area_grid) ~req ~load ~area data =
  let q =
    Solution.quantise ~req_grid ~load_grid ~area_grid
      (Solution.make ~req ~load ~area ())
  in
  Curve.Builder.push bld ~req:q.Solution.req ~load:q.Solution.load
    ~area:q.Solution.area data

(* The payload of point [i] of join operand [tag]: a sink of [net]
   wired to [root], where every pair can join, and a member unique to
   the operand and point, so a pair decoded from the wrong split or
   index shows. *)
let operand_data net root tag i =
  { (Build.extend_wire tech ~to_:root (Build.of_sink (Net.sink net i)))
    .Solution.data
    with Build.members = [ Catree.Direct ((100 * tag) + i) ] }

(* The filtered join batch builds the same curve as pushing every pair
   of every split: 1-3 splits into one batch, capped or not. *)
let prop_join_prefilter seed =
  let rng = Random.State.make [| seed |] in
  let quant = prefilter_grids.(Random.State.int rng 5) in
  let flat = Random.State.int rng 3 = 0 and lattice = Random.State.bool rng in
  let net = mk_net 24 seed and root = Point.make 500 500 in
  let curve tag =
    random_curve rng ~width:12 ~flat ~lattice quant (operand_data net root tag)
  in
  let splits =
    List.init (1 + Random.State.int rng 3) (fun s ->
        (curve (2 * s), curve ((2 * s) + 1)))
  in
  let max_curve =
    if Random.State.bool rng then max_int else 2 + Random.State.int rng 8
  in
  let reference = Curve.Builder.create () in
  let product = ref 0 in
  List.iter
    (fun (left, right) ->
       Curve.iter
         (fun a ->
            Curve.iter
              (fun b ->
                 let t = Build.join root a b in
                 push_quantised reference quant ~req:t.Solution.req
                   ~load:t.Solution.load ~area:t.Solution.area t.Solution.data;
                 incr product)
              right)
         left)
    splits;
  let expected = Curve.Builder.build ~max_size:max_curve reference in
  let batch = Batch.create ~tech ~subset:[||] ~max_curve ~quant in
  List.iteri (fun s (left, right) -> Batch.split batch s left right) splits;
  let got = Batch.join batch root (List.length splits) in
  same_points expected got
  && Int.equal (Curve.Builder.kept reference) (Batch.kept batch)
  && Int.equal (Batch.pushed batch + Batch.filtered batch) !product

(* On flat curves with exact sums the filter leaves van Ginneken's
   merge: for each point of one operand, at most one partner of the
   other with the higher required time, so at most |left| + |right|
   pushes instead of |left| * |right|. *)
let prop_join_prefilter_flat seed =
  let rng = Random.State.make [| seed |] in
  let quant = (0.0, 0.0, 0.0) in
  let net = mk_net 24 seed and root = Point.make 500 500 in
  let curve tag =
    random_curve rng ~width:12 ~flat:true ~lattice:true quant
      (operand_data net root tag)
  in
  let left = curve 0 and right = curve 1 in
  let batch = Batch.create ~tech ~subset:[||] ~max_curve:max_int ~quant in
  Batch.split batch 0 left right;
  ignore (Batch.join batch root 1);
  Batch.pushed batch <= Curve.size left + Curve.size right

(* The filtered buffer closure builds the same curve as pushing every
   trial: curves mixing buffered and open roots, subsets of 0-8
   buffers, trials on open roots only or on every root. *)
let prop_close_prefilter seed =
  let rng = Random.State.make [| seed |] in
  let quant = prefilter_grids.(Random.State.int rng 5) in
  let flat = Random.State.int rng 3 = 0 and lattice = Random.State.bool rng in
  let net = mk_net 24 seed in
  let library = Array.copy buffers in
  for i = Array.length library - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = library.(i) in
    library.(i) <- library.(j);
    library.(j) <- t
  done;
  let subset = Array.sub library 0 (Random.State.int rng 9) in
  let rebuffer = Random.State.bool rng in
  let max_curve = 2 + Random.State.int rng 8 in
  let curve =
    random_curve rng ~width:12 ~flat ~lattice quant (fun i ->
        let s = Build.of_sink (Net.sink net i) in
        if Random.State.int rng 4 = 0 then
          (Build.add_root_buffer buffers.(Random.State.int rng 34) s).Solution.data
        else s.Solution.data)
  in
  let reference = Curve.Builder.create () in
  Curve.Builder.add_curve reference curve;
  let trials = ref 0 in
  Curve.iter
    (fun s ->
       match s.Solution.data.Build.tree with
       | Rtree.Node { buffer = Some _; _ } when not rebuffer -> ()
       | Rtree.Leaf _ | Rtree.Node _ ->
         Array.iter
           (fun b ->
              let t = Build.add_root_buffer b s in
              push_quantised reference quant ~req:t.Solution.req
                ~load:t.Solution.load ~area:t.Solution.area t.Solution.data;
              incr trials)
           subset)
    curve;
  let expected = Curve.Builder.build ~max_size:max_curve reference in
  let batch = Batch.create ~tech ~subset ~max_curve ~quant in
  let got = Batch.close batch ~rebuffer curve in
  same_points expected got
  && Int.equal (Curve.Builder.kept reference) (Batch.kept batch)
  && Int.equal (Batch.pushed batch + Batch.filtered batch) !trials

(* The kernel's byte windows are additive: the allocation counter reads
   a window's allocation (here live pairs, so the minor collections
   inside it promote) and does not move across a bare collection. *)
let test_allocated_bytes_additive () =
  let n = 100_000 and keep = ref [] in
  let before = Star_ptree.allocated_bytes () in
  for i = 1 to n do
    keep := (i, i) :: !keep
  done;
  let mid = Star_ptree.allocated_bytes () in
  Gc.minor ();
  let after = Star_ptree.allocated_bytes () in
  let pairs = float_of_int (n * 6 * (Sys.word_size / 8)) in
  ignore (Sys.opaque_identity !keep);
  Alcotest.(check bool) "window reads its allocation" true
    (mid -. before >= pairs && mid -. before <= pairs +. 1024.0);
  Alcotest.(check bool) "still across Gc.minor" true (after -. mid <= 1024.0)

(* The kernel's byte windows read a counter that costs nothing to read,
   so a window holds only the kernel's own bytes: two back-to-back
   readings differ by 0 B.  The bytecode interpreter boxes the float
   Gc.minor_words returns, one two-word block per reading. *)
let test_window_costs_nothing () =
  let a = Star_ptree.window_bytes () in
  let b = Star_ptree.window_bytes () in
  let reading =
    match Sys.backend_type with
    | Sys.Native -> 0
    | Sys.Bytecode | Sys.Other _ -> 2 * (Sys.word_size / 8)
  in
  Alcotest.(check int) "back-to-back readings" reading (b - a);
  let before = Star_ptree.window_bytes () in
  ignore (Sys.opaque_identity (Array.make 10 0));
  Alcotest.(check int) "a window reads its allocation"
    (reading + (11 * (Sys.word_size / 8)))
    (Star_ptree.window_bytes () - before)

(* Exact mode: a cap no curve reaches, then the widest one, max_int.
   The routes are the same down to the trees, so no candidate code
   depends on the cap's magnitude. *)
let test_exact_mode_max_int () =
  let net = mk_net 5 11 in
  let route max_curve =
    let cfg = { tiny_cfg with Config.max_curve; max_iters = 2 } in
    Option.get (Merlin.run ~cfg ~tech ~buffers net)
  in
  let wide = route 4096 and widest = route max_int in
  let bits s =
    List.map Int64.bits_of_float
      [ s.Solution.req; s.Solution.load; s.Solution.area ]
  in
  let hierarchy o = Format.asprintf "%a" Catree.pp o.Merlin.hierarchy in
  Alcotest.(check bool) "wider than the capped runs" true
    (Curve.size widest.Merlin.curve > tiny_cfg.Config.max_curve);
  Alcotest.(check bool) "the cap never binds" true
    (Curve.size widest.Merlin.curve < 4096);
  Alcotest.(check bool) "same curve, trees and order" true
    (List.equal
       (fun (s : Build.t Solution.t) t ->
          List.equal Int64.equal (bits s) (bits t)
          && rtree_equal s.Solution.data.Build.tree t.Solution.data.Build.tree
          && List.equal member_equal s.Solution.data.Build.members
               t.Solution.data.Build.members)
       (Curve.to_list wide.Merlin.curve)
       (Curve.to_list widest.Merlin.curve));
  Alcotest.(check bool) "same route" true
    (rtree_equal wide.Merlin.tree widest.Merlin.tree
     && String.equal (hierarchy wide) (hierarchy widest))

(* ---------- Bubble_construct ---------- *)

let construct ?(cfg = tiny_cfg) net order =
  Bubble_construct.construct ~cfg ~tech ~buffers net order

let test_bubble_valid_and_in_neighborhood () =
  (* Lemma 5: every realized order is in N(Pi); plus tree validity,
     hierarchy well-formedness and the engine/evaluator agreement. *)
  List.iter
    (fun (n, seed) ->
       let net = mk_net n seed in
       let order = Tsp.order net in
       let r = construct net order in
       Alcotest.(check bool) "final curve nonempty" false
         (Curve.is_empty r.Bubble_construct.curve);
       Curve.iter
         (fun sol ->
            let tree = sol.Solution.data.Build.tree in
            Alcotest.(check bool) "tree covers the net" true (Check.is_valid net tree);
            let realized = Bubble_construct.realized_order sol in
            Alcotest.(check bool) "Lemma 5: realized in N(order)" true
              (Order.in_neighborhood order realized);
            let h = Bubble_construct.hierarchy sol in
            Alcotest.(check bool) "C-alpha well formed" true
              (Catree.well_formed ~alpha:tiny_cfg.Config.alpha h);
            Alcotest.(check (list int)) "hierarchy order = tree DFS order"
              (Catree.sinks_in_order h)
              (Rtree.sink_ids_in_order tree))
         r.Bubble_construct.curve)
    [ (2, 3); (3, 4); (4, 5); (5, 6) ]

let test_bubble_pessimistic_req () =
  (* Quantisation rounds required time down and load/area up, so the
     engine's claim never exceeds what the evaluator certifies. *)
  let net = mk_net 4 8 in
  let r = construct net (Tsp.order net) in
  Curve.iter
    (fun sol ->
       let ev = Eval.net tech net sol.Solution.data.Build.tree in
       Alcotest.(check bool) "engine req <= eval req" true
         (sol.Solution.req <= ev.Eval.root_req +. 1e-6);
       Alcotest.(check bool) "engine area >= eval area" true
         (sol.Solution.area >= ev.Eval.area -. 1e-6))
    r.Bubble_construct.curve

let test_bubble_covers_swap () =
  (* Lemma 6 witness: two sinks whose optimal connection order is the
     reverse of the given order; bubbling must find the swap. *)
  let s0 = Sink.make ~id:0 ~pt:(Point.make 2000 0) ~cap:5.0 ~req:3000.0 in
  let s1 = Sink.make ~id:1 ~pt:(Point.make 1000 0) ~cap:5.0 ~req:1200.0 in
  let net = Net.make ~name:"swap" ~source:Point.origin ~driver:Net.default_driver [ s0; s1 ] in
  (* Give the engine the "wrong" order (s0 before s1). *)
  let r = construct net (Order.of_list [ 0; 1 ]) in
  let orders =
    Curve.to_list r.Bubble_construct.curve
    |> List.map (fun sol -> Order.to_list (Bubble_construct.realized_order sol))
    |> List.sort_uniq (List.compare Int.compare)
  in
  Alcotest.(check bool) "the swapped order was explored" true
    (List.length orders >= 1);
  (* The best solution should chain s1 (closer, less critical window)
     without being forced through s0 first; at minimum both orders are
     reachable across the curve or the best solution is valid. *)
  let best = Option.get (Curve.best_req r.Bubble_construct.curve) in
  Alcotest.(check bool) "best is valid" true
    (Check.is_valid net best.Solution.data.Build.tree)

let test_bubble_rejects_bad_order () =
  let net = mk_net 3 1 in
  Alcotest.check_raises "bad order"
    (Invalid_argument "Bubble_construct.construct: bad order") (fun () ->
        ignore (construct net (Order.of_list [ 0; 1 ])))

let test_single_sink_net () =
  let net = mk_net 1 2 in
  let r = construct net (Order.identity 1) in
  let best = Option.get (Curve.best_req r.Bubble_construct.curve) in
  Alcotest.(check bool) "valid" true (Check.is_valid net best.Solution.data.Build.tree)

let test_bubble_drops_every_cell () =
  (* Every cell the construction's *PTREE context computes is dropped by
     the time construct returns: each run of terminals dies after its
     last merge, whichever side of it the chain sits. *)
  List.iter
    (fun (n, seed, cfg) ->
       let cells = Atomic.get Star_ptree.n_cells
       and dropped = Atomic.get Star_ptree.n_dropped in
       ignore (construct ~cfg (mk_net n seed) (Order.identity n));
       Alcotest.(check int)
         (Printf.sprintf "n=%d seed=%d: cells held after construct" n seed)
         (Atomic.get Star_ptree.n_cells - cells)
         (Atomic.get Star_ptree.n_dropped - dropped))
    [ (1, 2, tiny_cfg);
      (2, 3, tiny_cfg);
      (5, 4, tiny_cfg);
      (7, 5, tiny_cfg);
      (6, 6, { tiny_cfg with Config.chain_placement = Config.All_positions });
      (6, 7, { tiny_cfg with Config.bubbling = false }) ]

(* ---------- Merlin ---------- *)

let test_bubbling_off_keeps_order () =
  (* With chi_1..chi_3 disabled the engine cannot perturb the order, so
     every solution realises exactly the initial order. *)
  let cfg = { tiny_cfg with Config.bubbling = false } in
  List.iter
    (fun seed ->
       let net = mk_net 4 seed in
       let order = Tsp.order net in
       let r = Bubble_construct.construct ~cfg ~tech ~buffers net order in
       Curve.iter
         (fun sol ->
            Alcotest.(check (list int)) "order fixed" (Order.to_list order)
              (Order.to_list (Bubble_construct.realized_order sol)))
         r.Bubble_construct.curve)
    [ 3; 9; 21 ]

let test_merlin_converges () =
  List.iter
    (fun (n, seed) ->
       let net = mk_net n seed in
       match Merlin.run ~cfg:tiny_cfg ~tech ~buffers net with
       | None -> Alcotest.fail "unexpected infeasible"
       | Some out ->
         Alcotest.(check bool) "loops within bound" true
           (out.Merlin.loops <= tiny_cfg.Config.max_iters);
         Alcotest.(check bool) "valid tree" true (Check.is_valid net out.Merlin.tree);
         Alcotest.(check int) "history length = loops" out.Merlin.loops
           (List.length out.Merlin.req_history);
         (* Theorem 7 analogue under pruning: the returned solution is the
            best ever seen. *)
         let best_seen =
           List.fold_left max neg_infinity out.Merlin.req_history
         in
         Alcotest.(check (float 1e-9)) "returns the best iterate" best_seen
           out.Merlin.best.Solution.req)
    [ (3, 31); (4, 32); (5, 33) ]

let test_merlin_respects_area_budget () =
  let net = mk_net 4 41 in
  match
    Merlin.run ~cfg:tiny_cfg ~objective:(Objective.Max_req_under_area 20.0)
      ~tech ~buffers net
  with
  | None -> () (* a tight budget may be infeasible; that is a valid answer *)
  | Some out ->
    Alcotest.(check bool) "area within budget" true
      (out.Merlin.best.Solution.area <= 20.0 +. 1e-9)

let test_merlin_variant2 () =
  let net = mk_net 4 42 in
  (* First find the best achievable req, then ask for a bit less with
     minimum area. *)
  let unconstrained = Option.get (Merlin.run ~cfg:tiny_cfg ~tech ~buffers net) in
  let target = unconstrained.Merlin.best.Solution.req -. 100.0 in
  match
    Merlin.run ~cfg:tiny_cfg ~objective:(Objective.Min_area_over_req target)
      ~tech ~buffers net
  with
  | None -> Alcotest.fail "relaxed target should be feasible"
  | Some out ->
    Alcotest.(check bool) "meets the floor" true
      (out.Merlin.best.Solution.req >= target -. 1e-9);
    Alcotest.(check bool) "area no larger than unconstrained best" true
      (out.Merlin.best.Solution.area
       <= unconstrained.Merlin.best.Solution.area +. 1e-9)

let test_config_presets () =
  Config.validate Config.default;
  Config.validate Config.paper_table1;
  Config.validate Config.paper_table2;
  List.iter (fun n -> Config.validate (Config.scaled n)) [ 1; 5; 15; 30; 80 ];
  Alcotest.(check int) "table 1 alpha" 15 Config.paper_table1.Config.alpha;
  Alcotest.(check int) "table 2 alpha" 10 Config.paper_table2.Config.alpha;
  Alcotest.(check int) "table 2 loop bound" 3 Config.paper_table2.Config.max_iters;
  Alcotest.check_raises "bad alpha" (Invalid_argument "Config.validate: alpha < 2")
    (fun () -> Config.validate { Config.default with Config.alpha = 1 })

let suite =
  ( "core",
    [ Alcotest.test_case "grouping stretch" `Quick test_stretch;
      Alcotest.test_case "grouping covered (Fig 13)" `Quick test_covered_fig13;
      Alcotest.test_case "grouping len 1" `Quick test_covered_len1;
      Alcotest.test_case "grouping slots partition" `Quick test_slots_partition;
      Alcotest.test_case "catree basics" `Quick test_catree_basics;
      Alcotest.test_case "objective variants" `Quick test_objective;
      Alcotest.test_case "star single sink" `Quick test_star_single_sink;
      Alcotest.test_case "star order preserved" `Quick test_star_order_preserved;
      Alcotest.test_case "star engine = evaluator" `Quick test_star_internal_consistency;
      QCheck_alcotest.to_alcotest
        (QCheck.Test.make ~name:"star context memo = context-free runs"
           ~count:40
           QCheck.(pair (int_bound 10_000) (int_bound 10_000))
           prop_star_context_memo);
      QCheck_alcotest.to_alcotest
        (QCheck.Test.make ~name:"build moves = data-only form + cost twin"
           ~count:100 QCheck.(int_bound 10_000) prop_build_moves_split);
      QCheck_alcotest.to_alcotest
        (QCheck.Test.make ~name:"join pre-filter = unfiltered join build"
           ~count:2000 QCheck.(int_bound 1_000_000) prop_join_prefilter);
      QCheck_alcotest.to_alcotest
        (QCheck.Test.make ~name:"join pre-filter on flat curves = merge"
           ~count:500 QCheck.(int_bound 1_000_000) prop_join_prefilter_flat);
      QCheck_alcotest.to_alcotest
        (QCheck.Test.make ~name:"close pre-filter = unfiltered closure build"
           ~count:2000 QCheck.(int_bound 1_000_000) prop_close_prefilter);
      Alcotest.test_case "star byte windows are additive" `Quick
        test_allocated_bytes_additive;
      Alcotest.test_case "a kernel byte window costs no bytes" `Quick
        test_window_costs_nothing;
      Alcotest.test_case "exact mode: max_curve = max_int" `Quick
        test_exact_mode_max_int;
      Alcotest.test_case "bubble: validity, Lemma 5, C-alpha" `Slow
        test_bubble_valid_and_in_neighborhood;
      Alcotest.test_case "bubble: pessimistic quantisation" `Quick
        test_bubble_pessimistic_req;
      Alcotest.test_case "bubble: swap coverage" `Quick test_bubble_covers_swap;
      Alcotest.test_case "bubble: bad order" `Quick test_bubble_rejects_bad_order;
      Alcotest.test_case "bubble: single sink" `Quick test_single_sink_net;
      Alcotest.test_case "bubble: context drops every cell" `Quick
        test_bubble_drops_every_cell;
      Alcotest.test_case "bubbling off keeps order" `Quick test_bubbling_off_keeps_order;
      Alcotest.test_case "merlin converges (Thm 7)" `Slow test_merlin_converges;
      Alcotest.test_case "merlin area budget (variant I)" `Quick
        test_merlin_respects_area_budget;
      Alcotest.test_case "merlin min area (variant II)" `Quick test_merlin_variant2;
      Alcotest.test_case "config presets" `Quick test_config_presets ] )
