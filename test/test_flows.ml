open Merlin_tech
open Merlin_net
open Merlin_rtree
module Flows = Merlin_flows.Flows

let tech = Tech.default
let buffers = Buffer_lib.default

let fast_cfg3 =
  { Merlin_core.Config.default with
    Merlin_core.Config.candidate_limit = 8;
    max_curve = 5;
    buffer_trials = 4;
    max_iters = 2 }

let mk_net n seed = Net_gen.random_net ~seed ~name:"fl" ~n tech
let run algo net = Flows.run { Flows.tech; buffers; algo } net
let flow1 = Flows.Lttree_ptree { max_fanout = 10 }
let flow2 = Flows.Ptree_vg { refine_seg = None }

let flow3 =
  Flows.Merlin { cfg = Some fast_cfg3; objective = Merlin_core.Objective.Best_req }

let check_metrics net (m : Flows.metrics) =
  Alcotest.(check bool) (m.Flows.flow ^ " tree valid") true
    (Check.is_valid net m.Flows.tree);
  Alcotest.(check (float 1e-6)) (m.Flows.flow ^ " area = tree buffer area")
    (Rtree.buffer_area m.Flows.tree) m.Flows.area;
  Alcotest.(check int) (m.Flows.flow ^ " buffer count")
    (Rtree.n_buffers m.Flows.tree) m.Flows.n_buffers;
  Alcotest.(check bool) (m.Flows.flow ^ " delay positive") true (m.Flows.delay > 0.0);
  Alcotest.(check bool) (m.Flows.flow ^ " runtime nonnegative") true
    (m.Flows.runtime >= 0.0)

let test_all_flows_valid () =
  List.iter
    (fun (n, seed) ->
       let net = mk_net n seed in
       let results = Flows.all ~tech ~buffers ~cfg3:fast_cfg3 net in
       Alcotest.(check int) "three flows" 3 (List.length results);
       List.iter (check_metrics net) results)
    [ (2, 1); (5, 2) ]

let test_flow_metrics_consistent_with_eval () =
  let net = mk_net 4 9 in
  let m = run flow2 net in
  let ev = Eval.net tech net m.Flows.tree in
  Alcotest.(check (float 1e-6)) "delay" ev.Eval.net_delay m.Flows.delay;
  Alcotest.(check (float 1e-6)) "req" ev.Eval.root_req m.Flows.root_req

let test_flow1_single_sink () =
  let net = mk_net 1 3 in
  let m = run flow1 net in
  check_metrics net m

let test_flow3_reports_loops () =
  let net = mk_net 3 5 in
  let m = run flow3 net in
  Alcotest.(check bool) "at least one loop" true (m.Flows.loops >= 1);
  Alcotest.(check bool) "bounded loops" true
    (m.Flows.loops <= fast_cfg3.Merlin_core.Config.max_iters)

let test_merlin_beats_or_matches_flow1 () =
  (* The headline claim at net level: the unified approach does not lose
     to the sequential logic-then-layout flow. *)
  List.iter
    (fun seed ->
       let net = mk_net 6 seed in
       let m1 = run flow1 net in
       let m3 = run flow3 net in
       Alcotest.(check bool)
         (Printf.sprintf "seed %d: MERLIN req >= Flow I req" seed)
         true
         (m3.Flows.root_req >= m1.Flows.root_req -. 1.0))
    [ 2; 7; 12 ]

(* Flows I and II pinned: the metrics with the tree (runtime zeroed),
   one JSON document per line, must match the golden byte for byte. *)
let test_flows_golden () =
  let net = Net_gen.random_net ~seed:5 ~name:"golden" ~n:7 tech in
  let line name =
    let algo = Option.get (Flows.default_algo name) in
    let m = { (run algo net) with Flows.runtime = 0.0 } in
    Merlin_report.Json.to_string
      (Merlin_report.Metrics.to_json (Flows.wire_metrics ~with_tree:true m))
    ^ "\n"
  in
  let expected =
    In_channel.with_open_bin "flows_golden_r7s5.expected" In_channel.input_all
  in
  Alcotest.(check string) "flows I and II = golden" expected
    (line "lttree-ptree" ^ line "ptree-vg")

(* Metamorphic: moving every terminal by one offset moves the tree and
   changes no metric, on all four flows.  Offsets reach well into
   negative coordinates, where rounding must not depend on the sign. *)
let flow4 =
  Flows.Hier
    { cluster = { Merlin_hier.Cluster.default with n_clusters = Some 2 };
      inner = flow3 }

let translate (dx, dy) (net : Net.t) =
  let move (p : Merlin_geometry.Point.t) =
    Merlin_geometry.Point.make
      (p.Merlin_geometry.Point.x + dx)
      (p.Merlin_geometry.Point.y + dy)
  in
  { net with
    Net.source = move net.Net.source;
    sinks =
      Array.map (fun s -> { s with Sink.pt = move s.Sink.pt }) net.Net.sinks }

let metrics_line algo net =
  let m = { (run algo net) with Flows.runtime = 0.0 } in
  Merlin_report.Json.to_string
    (Merlin_report.Metrics.to_json (Flows.wire_metrics m))

let prop_translation (n, seed, offset) =
  let net = mk_net n seed in
  let moved = translate offset net in
  List.for_all
    (fun algo ->
       String.equal (metrics_line algo net) (metrics_line algo moved))
    [ flow1; flow2; flow3; flow4 ]

let arb_translation =
  QCheck.(
    triple (int_range 2 6) (int_range 1 6)
      (pair (int_range (-3000) 3000) (int_range (-3000) 3000)))

let suite =
  ( "flows",
    [ Alcotest.test_case "all flows valid" `Slow test_all_flows_valid;
      Alcotest.test_case "metrics = evaluator" `Quick
        test_flow_metrics_consistent_with_eval;
      Alcotest.test_case "flow1 single sink" `Quick test_flow1_single_sink;
      Alcotest.test_case "flow3 loops" `Quick test_flow3_reports_loops;
      Alcotest.test_case "merlin >= flow1" `Slow test_merlin_beats_or_matches_flow1;
      Alcotest.test_case "flows I and II golden" `Quick test_flows_golden;
      QCheck_alcotest.to_alcotest
        (QCheck.Test.make ~name:"translating the net changes no metric"
           ~count:6 arb_translation prop_translation) ] )
