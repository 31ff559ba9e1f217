open Merlin_geometry
open Merlin_tech
open Merlin_circuit

let tech = Tech.default
let buffers = Buffer_lib.default

let small_circuit () =
  Placement.place (Circuit_gen.random ~seed:3 ~n_gates:25 ~n_inputs:6 ~name:"tiny")

let test_gen_validates () =
  List.iter
    (fun seed ->
       let nl = Circuit_gen.random ~seed ~n_gates:40 ~n_inputs:8 ~name:"g" in
       Netlist.validate nl;
       Alcotest.(check int) "gate count" 40 (Array.length nl.Netlist.gates);
       Alcotest.(check bool) "has outputs" true
         (List.length nl.Netlist.outputs > 0))
    [ 1; 2; 3 ]

let test_gen_deterministic () =
  let a = Circuit_gen.generate ~name:"C432" () in
  let b = Circuit_gen.generate ~name:"C432" () in
  Alcotest.(check int) "same gates" (Array.length a.Netlist.gates)
    (Array.length b.Netlist.gates);
  Array.iteri
    (fun i ga ->
       let gb = b.Netlist.gates.(i) in
       Alcotest.(check string) "same kind" ga.Netlist.kind.Gate.name
         gb.Netlist.kind.Gate.name;
       Alcotest.(check (array int)) "same fanins" ga.Netlist.fanins
         gb.Netlist.fanins)
    a.Netlist.gates

let test_table2_specs () =
  Alcotest.(check int) "15 circuits" 15 (List.length Circuit_gen.table2_specs);
  List.iter
    (fun (name, area, delay, runtime) ->
       Alcotest.(check bool) (name ^ " positive") true
         (area > 0.0 && delay > 0.0 && runtime > 0.0))
    Circuit_gen.table2_specs

let test_scaling_follows_area () =
  let big = Circuit_gen.generate ~name:"C7552" () in
  let small = Circuit_gen.generate ~name:"B9" () in
  Alcotest.(check bool) "larger benchmark has more gates" true
    (Array.length big.Netlist.gates > Array.length small.Netlist.gates)

let test_placement_in_die () =
  let nl = small_circuit () in
  let side = Placement.die_side nl in
  Array.iter
    (fun p ->
       Alcotest.(check bool) "inside die" true
         (p.Point.x >= 0 && p.Point.x <= side && p.Point.y >= 0 && p.Point.y <= side))
    nl.Netlist.positions

let test_fanouts () =
  let nl = Circuit_gen.random ~seed:5 ~n_gates:20 ~n_inputs:5 ~name:"fo" in
  let fo = Netlist.fanouts nl in
  (* Every gate's fanins appear in the fanout lists. *)
  Array.iteri
    (fun g gate ->
       Array.iter
         (fun node ->
            Alcotest.(check bool) "fanout recorded" true (List.mem g fo.(node)))
         gate.Netlist.fanins)
    nl.Netlist.gates

let test_sta_basics () =
  let nl = small_circuit () in
  let sta = Sta.init nl in
  let r = Sta.analyse ~tech sta in
  Alcotest.(check bool) "critical positive" true (r.Sta.critical > 0.0);
  Alcotest.(check (float 1e-9)) "default clock = critical" r.Sta.critical r.Sta.clock;
  (* Arrival ordering along edges: a gate is never ready before its
     fanins. *)
  Array.iteri
    (fun g gate ->
       let node = Netlist.node_of_gate nl g in
       Array.iter
         (fun fanin ->
            Alcotest.(check bool) "causality" true
              (r.Sta.ready.(node) >= r.Sta.ready.(fanin)))
         gate.Netlist.fanins)
    nl.Netlist.gates;
  (* At the default clock no required time is above the clock. *)
  Array.iter
    (fun req -> Alcotest.(check bool) "required <= clock" true (req <= r.Sta.clock +. 1e-6))
    r.Sta.required

let test_sta_slack_nonnegative_at_default_clock () =
  let nl = small_circuit () in
  let sta = Sta.init nl in
  let r = Sta.analyse ~tech sta in
  Array.iteri
    (fun node ready ->
       Alcotest.(check bool)
         (Printf.sprintf "node %d slack" node)
         true
         (r.Sta.required.(node) -. ready >= -1e-6))
    r.Sta.ready

let test_net_for_optimization () =
  let nl = small_circuit () in
  let sta = Sta.init nl in
  let r = Sta.analyse ~tech sta in
  let found = ref 0 in
  for node = 0 to Netlist.n_nodes nl - 1 do
    match Sta.net_for_optimization sta r node with
    | None ->
      Alcotest.(check (list int)) "no fanouts" [] (Sta.sink_gates sta node)
    | Some net ->
      incr found;
      Alcotest.(check int) "one sink per fanout gate"
        (List.length (Sta.sink_gates sta node))
        (Merlin_net.Net.n_sinks net)
  done;
  Alcotest.(check bool) "some nets exist" true (!found > 0)

let test_better_routing_reduces_delay () =
  (* Replacing the star of the most critical multi-sink net with a
     buffered routing must not increase the critical path. *)
  let nl = small_circuit () in
  let sta = Sta.init nl in
  let r = Sta.analyse ~tech sta in
  let candidate = ref None in
  for node = 0 to Netlist.n_nodes nl - 1 do
    if List.length (Sta.sink_gates sta node) >= 3 && Option.is_none !candidate
    then
      candidate := Some node
  done;
  match !candidate with
  | None -> () (* no multi-sink nets in this synthetic instance *)
  | Some node ->
    let net = Option.get (Sta.net_for_optimization sta r node) in
    let m =
      Merlin_flows.Flows.run
        { Merlin_flows.Flows.tech;
          buffers;
          algo = Merlin_flows.Flows.Ptree_vg { refine_seg = None } }
        net
    in
    let sta' = Sta.with_routing sta ~node m.Merlin_flows.Flows.tree in
    let r' = Sta.analyse ~tech ~clock:r.Sta.clock sta' in
    Alcotest.(check bool) "critical did not explode" true
      (r'.Sta.critical <= r.Sta.critical *. 1.10 +. 1.0)

let test_flow_runner_smoke () =
  let nl =
    Placement.place (Circuit_gen.random ~seed:11 ~n_gates:15 ~n_inputs:4 ~name:"smoke")
  in
  let res = Flow_runner.run ~tech ~buffers ~flow:Flow_runner.Flow2 nl in
  Alcotest.(check bool) "area at least gate area" true
    (res.Flow_runner.area >= Netlist.gate_area nl -. 1e-9);
  Alcotest.(check bool) "positive delay" true (res.Flow_runner.delay > 0.0);
  Alcotest.(check bool) "optimized some nets" true
    (res.Flow_runner.nets_optimized > 0)

(* [Flow_runner.nets] is the batch-serving extraction path: it must
   name every optimizable net uniquely and honour the sink floor. *)
let test_flow_runner_nets () =
  let nl =
    Placement.place (Circuit_gen.random ~seed:11 ~n_gates:15 ~n_inputs:4 ~name:"smoke")
  in
  let nets = Flow_runner.nets ~tech nl in
  Alcotest.(check bool) "found optimizable nets" true (List.length nets > 0);
  let names = List.map fst nets in
  Alcotest.(check int) "names are unique"
    (List.length names)
    (List.length (List.sort_uniq String.compare names));
  List.iter
    (fun (name, net) ->
       Alcotest.(check string) "name matches the net" name
         net.Merlin_net.Net.name;
       Alcotest.(check bool) "sink floor honoured" true
         (Merlin_net.Net.n_sinks net >= 2))
    nets;
  let strict = Flow_runner.nets ~tech ~min_sinks:4 nl in
  List.iter
    (fun (_, net) ->
       Alcotest.(check bool) "raised floor honoured" true
         (Merlin_net.Net.n_sinks net >= 4))
    strict;
  Alcotest.(check bool) "raising the floor only shrinks the list" true
    (List.length strict <= List.length nets)

let suite =
  ( "circuit",
    [ Alcotest.test_case "gen validates" `Quick test_gen_validates;
      Alcotest.test_case "gen deterministic" `Quick test_gen_deterministic;
      Alcotest.test_case "table2 specs" `Quick test_table2_specs;
      Alcotest.test_case "scaling follows area" `Quick test_scaling_follows_area;
      Alcotest.test_case "placement in die" `Quick test_placement_in_die;
      Alcotest.test_case "fanouts" `Quick test_fanouts;
      Alcotest.test_case "sta basics" `Quick test_sta_basics;
      Alcotest.test_case "sta slack at default clock" `Quick
        test_sta_slack_nonnegative_at_default_clock;
      Alcotest.test_case "net for optimization" `Quick test_net_for_optimization;
      Alcotest.test_case "routing replacement" `Slow test_better_routing_reduces_delay;
      Alcotest.test_case "flow runner smoke" `Slow test_flow_runner_smoke;
      Alcotest.test_case "flow runner nets" `Quick test_flow_runner_nets ] )
