open Merlin_geometry
open Merlin_tech
open Merlin_net
open Merlin_rtree
open Merlin_order
open Merlin_curves
module Ptree = Merlin_ptree.Ptree

let tech = Tech.default

let mk_net n seed = Net_gen.random_net ~seed ~name:"pt" ~n tech

let test_route_valid () =
  List.iter
    (fun (n, seed) ->
       let net = mk_net n seed in
       let tree = Ptree.route ~tech net in
       Alcotest.(check bool) "covers sinks" true (Check.is_valid net tree);
       Alcotest.(check int) "no buffers in PTREE" 0 (Rtree.n_buffers tree);
       Alcotest.(check bool) "rooted at source" true
         (Point.equal (Rtree.attach_point tree) net.Net.source))
    [ (1, 1); (2, 2); (5, 3); (9, 4) ]

let test_respects_order () =
  (* The P_Tree property: the embedding preserves the sink order. *)
  List.iter
    (fun seed ->
       let net = mk_net 6 seed in
       let order = Tsp.order net in
       let tree = Ptree.route ~tech ~order net in
       Alcotest.(check (list int)) "DFS order = given order"
         (Order.to_list order)
         (Rtree.sink_ids_in_order tree))
    [ 10; 11; 12 ]

let test_better_than_star_on_a_line () =
  (* Sinks in a line far from the source: a path beats the star. *)
  let sinks =
    List.init 5 (fun id ->
        Sink.make ~id ~pt:(Point.make (1000 + (id * 100)) 0) ~cap:5.0 ~req:2000.0)
  in
  let net =
    Net.make ~name:"line" ~source:Point.origin ~driver:Net.default_driver sinks
  in
  let tree = Ptree.route ~tech net in
  let star = Rtree.node net.Net.source (List.map Rtree.leaf sinks) in
  let e_tree = Eval.net tech net tree and e_star = Eval.net tech net star in
  Alcotest.(check bool) "ptree at least as fast" true
    (e_tree.Eval.root_req >= e_star.Eval.root_req);
  Alcotest.(check bool) "ptree shorter wire" true
    (e_tree.Eval.wirelength <= e_star.Eval.wirelength)

let test_curve_measured_at_driver () =
  let net = mk_net 4 9 in
  let candidates = Ptree.candidate_set net in
  let c = Ptree.curve ~tech ~candidates ~order:(Tsp.order net) net in
  Alcotest.(check bool) "nonempty" false (Curve.is_empty c);
  List.iter
    (fun sol ->
       let ev = Eval.net tech net sol.Solution.data.Merlin_core.Build.tree in
       Alcotest.(check (float 1e-6)) "curve req matches evaluator"
         ev.Eval.root_req sol.Solution.req)
    (Curve_reference.of_curve c)

let test_rejects_bad_order () =
  let net = mk_net 4 1 in
  let candidates = Ptree.candidate_set net in
  Alcotest.check_raises "bad order" (Invalid_argument "Ptree.curve: bad order")
    (fun () ->
       ignore (Ptree.curve ~tech ~candidates ~order:(Order.of_list [ 0; 0; 1; 2 ]) net))

let qtest name ?(count = 25) arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb prop)

let props =
  [ qtest "route always valid" QCheck.(pair (int_range 1 10) (int_range 0 300))
      (fun (n, seed) ->
         let net = mk_net n seed in
         Check.is_valid net (Ptree.route ~tech net));
    (* Flow II hands these trees to van Ginneken, so none may hold a
       buffer of its own. *)
    qtest "route carries no buffer" QCheck.(pair (int_range 1 12) (int_range 0 300))
      (fun (n, seed) -> Rtree.n_buffers (Ptree.route ~tech (mk_net n seed)) = 0);
    qtest "wirelength at least bbox half-perimeter of terminals"
      QCheck.(pair (int_range 2 8) (int_range 0 300))
      (fun (n, seed) ->
         let net = mk_net n seed in
         let tree = Ptree.route ~tech net in
         let box = Net.bounding_box net in
         (Eval.net tech net tree).Eval.wirelength >= Rect.half_perimeter box) ]

let suite =
  ( "ptree",
    [ Alcotest.test_case "route valid" `Quick test_route_valid;
      Alcotest.test_case "respects order" `Quick test_respects_order;
      Alcotest.test_case "line beats star" `Quick test_better_than_star_on_a_line;
      Alcotest.test_case "curve at driver" `Quick test_curve_measured_at_driver;
      Alcotest.test_case "rejects bad order" `Quick test_rejects_bad_order ]
    @ props )
