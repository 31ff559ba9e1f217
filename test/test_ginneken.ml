open Merlin_geometry
open Merlin_tech
open Merlin_net
open Merlin_rtree
open Merlin_curves
module VG = Merlin_ginneken.Van_ginneken

let tech = Tech.default
let buffers = Buffer_lib.default

let mk_net n seed = Net_gen.random_net ~seed ~name:"vg" ~n tech

let star net =
  Rtree.node net.Net.source
    (Array.to_list (Array.map Rtree.leaf net.Net.sinks))

let test_insert_never_worse () =
  List.iter
    (fun seed ->
       let net = mk_net 6 seed in
       let tree = star net in
       let buffered = VG.insert ~tech ~buffers net tree in
       let before = Eval.net tech net tree and after = Eval.net tech net buffered in
       Alcotest.(check bool) "req not worse" true
         (after.Eval.root_req >= before.Eval.root_req -. 1e-9);
       Alcotest.(check bool) "still valid" true (Check.is_valid net buffered))
    [ 1; 2; 3; 4 ]

let test_long_wire_gets_buffered () =
  (* A single sink across a very long wire: repeaters must win. *)
  let s = Sink.make ~id:0 ~pt:(Point.make 8000 0) ~cap:6.0 ~req:5000.0 in
  let net = Net.make ~name:"long" ~source:Point.origin ~driver:Net.default_driver [ s ] in
  let tree = star net in
  let buffered = VG.insert ~tech ~buffers ~refine_seg:500 net tree in
  Alcotest.(check bool) "buffers inserted" true (Rtree.n_buffers buffered > 0);
  let before = Eval.net tech net tree and after = Eval.net tech net buffered in
  Alcotest.(check bool) "strictly better" true
    (after.Eval.root_req > before.Eval.root_req)

let test_curve_contains_unbuffered () =
  let net = mk_net 4 9 in
  let tree = star net in
  let c = VG.curve ~tech ~buffers tree in
  Alcotest.(check bool) "frontier" true (Test_curves.non_inferior c);
  let zero_area =
    Curve_reference.of_curve c |> List.exists (fun s -> s.Solution.area = 0.0)
  in
  Alcotest.(check bool) "area-0 (unbuffered) point survives" true zero_area

let test_preserves_wirelength () =
  (* Buffer insertion never reroutes. *)
  let net = mk_net 5 17 in
  let tree = star net in
  let buffered = VG.insert ~tech ~buffers net tree in
  Alcotest.(check int) "same wirelength" (Rtree.wirelength tree)
    (Rtree.wirelength buffered)

let test_rejects_unrooted_tree () =
  let net = mk_net 3 1 in
  let bad = Rtree.node (Point.make 12345 4242) (Array.to_list (Array.map Rtree.leaf net.Net.sinks)) in
  Alcotest.check_raises "unrooted"
    (Invalid_argument "Van_ginneken.insert: tree not rooted at the net source")
    (fun () -> ignore (VG.insert ~tech ~buffers net bad))

let test_trials_subset_not_better () =
  let net = mk_net 6 23 in
  let tree = star net in
  let full = VG.insert ~tech ~buffers net tree in
  let coarse = VG.insert ~tech ~buffers ~trials:4 net tree in
  let e_full = Eval.net tech net full and e_coarse = Eval.net tech net coarse in
  (* Under curve caps "more buffer choices" is only near-monotone; allow a
     small pruning artefact. *)
  let margin = 10.0 +. (0.02 *. abs_float e_coarse.Eval.root_req) in
  Alcotest.(check bool) "full library at least as good (within pruning)" true
    (e_full.Eval.root_req >= e_coarse.Eval.root_req -. margin)

(* The driver step is Batch.to_driver, which re-roots every solution at
   the source before it takes the gate delay off.  A lone sink sitting
   on the source is the one tree whose root could change under it (a
   bare leaf gets wrapped): Flow II's tree there is the one van
   Ginneken's curve ranks best at the driver, gate delay and all. *)
let test_sink_on_source () =
  let src = Point.make 300 700 in
  let s = Sink.make ~id:0 ~pt:src ~cap:40.0 ~req:900.0 in
  let net = Net.make ~name:"on-source" ~source:src ~driver:Net.default_driver [ s ] in
  let routed = Merlin_ptree.Ptree.route ~tech net in
  let bld = Curve.Builder.create () in
  List.iter
    (fun (sol : Merlin_core.Build.sol) ->
       let gate = Delay_model.delay net.Net.driver ~load:sol.Solution.load in
       Curve.Builder.push bld ~req:(sol.Solution.req -. gate)
         ~load:sol.Solution.load ~area:sol.Solution.area sol.Solution.data)
    (Curve_reference.of_curve (VG.curve ~tech ~buffers routed));
  let best = Option.get (Curve.best_req (Curve.Builder.build bld)) in
  Alcotest.(check bool) "same tree" true
    (Test_core.rtree_equal best.Solution.data.Merlin_core.Build.tree
       (VG.insert ~tech ~buffers net routed))

(* Van Ginneken runs its batches through Batch, which moves no *PTREE
   counter: only Star_ptree.run_in does. *)
let test_star_counters_untouched () =
  let module S = Merlin_core.Star_ptree in
  let before = S.counts () in
  let net = mk_net 8 31 in
  ignore (VG.curve ~tech ~buffers ~refine_seg:300 (star net));
  let d = S.diff before (S.counts ()) in
  Alcotest.(check (list int)) "counters" (List.init 16 (fun _ -> 0))
    [ d.runs; d.join_adds; d.close_adds; d.pull_adds; d.base_adds; d.cells;
      d.pulls; d.dropped; d.join_filtered; d.close_filtered; d.joins;
      d.join_survivors; d.bytes_join; d.bytes_close; d.bytes_pull;
      d.bytes_base ]

(* The walk that builds every candidate's solution and tree before it
   prunes, kept as the reference for [VG.curve], which pushes costs and
   builds trees only for the points a batch keeps: the same batches in
   the same push order, so the same curves down to trees and order. *)
let reference_curve ~tech ~buffers ?trials ?(max_curve = 16) ?refine_seg tree =
  let module Build = Merlin_core.Build in
  let subset =
    match trials with
    | None -> buffers
    | Some trials -> Buffer_lib.subset buffers ~trials
  in
  let tree =
    match refine_seg with
    | None -> tree
    | Some max_seg -> Rtree.refine ~max_seg tree
  in
  let bld = Curve.Builder.create () in
  let map_build f c =
    Curve.Builder.clear bld;
    List.iter
      (fun sol -> Curve.Builder.add bld (f sol))
      (Curve_reference.of_curve c);
    Curve.Builder.build bld
  in
  let close c =
    Curve.Builder.clear bld;
    Curve.Builder.add_curve bld c;
    List.iter
      (fun sol ->
         Array.iter
           (fun b -> Curve.Builder.add bld (Build.add_root_buffer b sol))
           subset)
      (Curve_reference.of_curve c);
    Curve.Builder.build ~max_size:max_curve bld
  in
  let rec walk = function
    | Rtree.Leaf s -> close (Curve.singleton (Build.of_sink s))
    | Rtree.Node n ->
      let child_curve child =
        map_build (Build.extend_wire tech ~to_:n.Rtree.loc) (walk child)
      in
      let join2 acc child =
        let c = child_curve child in
        match acc with
        | None -> Some c
        | Some acc ->
          Curve.Builder.clear bld;
          List.iter
            (fun a ->
               List.iter
                 (fun b -> Curve.Builder.add bld (Build.join n.Rtree.loc a b))
                 (Curve_reference.of_curve c))
            (Curve_reference.of_curve acc);
          Some (Curve.Builder.build ~max_size:max_curve bld)
      in
      let joined =
        match List.fold_left join2 None n.Rtree.children with
        | Some c -> c
        | None -> assert false
      in
      let with_own_buffer =
        match n.Rtree.buffer with
        | None -> joined
        | Some b -> map_build (Build.add_root_buffer b) joined
      in
      close with_own_buffer
  in
  walk tree

(* A random tree over [net]'s sinks, rooted at the source: each level
   cuts its sinks into 1-3 runs, each run under a node at a random point
   of its bounding box (one in four holding a buffer of its own) or, for
   a single sink, sometimes the bare leaf; three levels deep at most. *)
let random_tree rng net =
  let rec groups depth sinks =
    let n = List.length sinks in
    if depth >= 3 then List.map Rtree.leaf sinks
    else begin
      let k = 1 + Random.State.int rng (min 3 n) in
      (* k - 1 distinct cut points in 1 .. n - 1, ascending. *)
      let cuts =
        List.init (n - 1) (fun i -> (Random.State.bits rng, i + 1))
        |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
        |> List.filteri (fun i _ -> i < k - 1)
        |> List.map snd
        |> List.sort Int.compare
      in
      let rec runs start cuts rest =
        match cuts with
        | [] -> [ rest ]
        | c :: cuts ->
          List.filteri (fun i _ -> i < c - start) rest
          :: runs c cuts (List.filteri (fun i _ -> i >= c - start) rest)
      in
      List.map (subtree (depth + 1)) (runs 0 cuts sinks)
    end
  and subtree depth = function
    | [ s ] when Random.State.bool rng -> Rtree.leaf s
    | sinks ->
      let box = Rect.bounding_box (List.map (fun s -> s.Sink.pt) sinks) in
      let coord lo hi = lo + Random.State.int rng (hi - lo + 1) in
      let loc =
        Point.make
          (coord box.Rect.lo.Point.x box.Rect.hi.Point.x)
          (coord box.Rect.lo.Point.y box.Rect.hi.Point.y)
      in
      let buffer =
        if Random.State.int rng 4 = 0 then
          Some buffers.(Random.State.int rng (Array.length buffers))
        else None
      in
      Rtree.node ?buffer loc (groups depth sinks)
  in
  Rtree.node net.Net.source (groups 0 (Array.to_list net.Net.sinks))

(* Bitwise coordinates, equal trees and member lists (sinks by id,
   buffers by name), in the same order. *)
let same_curves x y =
  let bits = Int64.bits_of_float in
  Curve.size x = Curve.size y
  && List.for_all2
       (fun (s : Merlin_core.Build.t Solution.t) t ->
          Int64.equal (bits s.Solution.req) (bits t.Solution.req)
          && Int64.equal (bits s.Solution.load) (bits t.Solution.load)
          && Int64.equal (bits s.Solution.area) (bits t.Solution.area)
          && Test_core.rtree_equal s.Solution.data.Merlin_core.Build.tree
               t.Solution.data.Merlin_core.Build.tree
          && List.equal Test_core.member_equal
               s.Solution.data.Merlin_core.Build.members
               t.Solution.data.Merlin_core.Build.members)
       (Curve_reference.of_curve x) (Curve_reference.of_curve y)

(* Random trees of 1-8 sinks, the whole library or 0-6 trials, small,
   default and wide caps, with and without refinement. *)
let prop_curve_equals_reference seed =
  let rng = Random.State.make [| seed |] in
  let net = mk_net (1 + Random.State.int rng 8) seed in
  let tree = random_tree rng net in
  let trials =
    if Random.State.bool rng then None else Some (Random.State.int rng 7)
  in
  let max_curve =
    match Random.State.int rng 3 with
    | 0 -> None
    | 1 -> Some (2 + Random.State.int rng 4)
    | _ -> Some (8 + Random.State.int rng 40)
  in
  let refine_seg =
    if Random.State.bool rng then None
    else Some (100 + Random.State.int rng 700)
  in
  same_curves
    (VG.curve ~tech ~buffers ?trials ?max_curve ?refine_seg tree)
    (reference_curve ~tech ~buffers ?trials ?max_curve ?refine_seg tree)

let qtest name ?(count = 25) arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb prop)

let props =
  [ qtest "curve = reference walk that builds every candidate" ~count:200
      QCheck.(int_range 0 100_000) prop_curve_equals_reference;
    qtest "insert keeps validity" QCheck.(pair (int_range 1 8) (int_range 0 300))
      (fun (n, seed) ->
         let net = mk_net n seed in
         Check.is_valid net (VG.insert ~tech ~buffers net (star net)));
    qtest "refined insertion at least as good as node-only"
      QCheck.(int_range 0 100)
      (fun seed ->
         let net = mk_net 4 seed in
         let tree = star net in
         let node_only = VG.insert ~tech ~buffers net tree in
         let refined = VG.insert ~tech ~buffers ~refine_seg:300 net tree in
         let r t = (Eval.net tech net t).Eval.root_req in
         r refined >= r node_only -. (10.0 +. (0.02 *. abs_float (r node_only)))) ]

let suite =
  ( "van_ginneken",
    [ Alcotest.test_case "never worse" `Quick test_insert_never_worse;
      Alcotest.test_case "long wire buffered" `Quick test_long_wire_gets_buffered;
      Alcotest.test_case "unbuffered survives" `Quick test_curve_contains_unbuffered;
      Alcotest.test_case "wirelength preserved" `Quick test_preserves_wirelength;
      Alcotest.test_case "rejects unrooted" `Quick test_rejects_unrooted_tree;
      Alcotest.test_case "library subset" `Quick test_trials_subset_not_better;
      Alcotest.test_case "flow II on a sink at the source" `Quick
        test_sink_on_source;
      Alcotest.test_case "star counters untouched" `Quick
        test_star_counters_untouched ]
    @ props )
