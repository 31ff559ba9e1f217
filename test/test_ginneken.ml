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
    Curve.to_list c |> List.exists (fun s -> s.Solution.area = 0.0)
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

let qtest name ?(count = 25) arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb prop)

let props =
  [ qtest "insert keeps validity" QCheck.(pair (int_range 1 8) (int_range 0 300))
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
      Alcotest.test_case "library subset" `Quick test_trials_subset_not_better ]
    @ props )
