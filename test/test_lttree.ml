open Merlin_geometry
open Merlin_tech
open Merlin_net
open Merlin_curves
module Lttree = Merlin_lttree.Lttree

let tech = Tech.default
let buffers = Buffer_lib.default

let mk_sinks n seed =
  let net = Net_gen.random_net ~seed ~name:"lt" ~n tech in
  Array.to_list net.Net.sinks

let sink_ids sinks =
  List.sort Int.compare (List.map (fun s -> s.Sink.id) sinks)

let test_plan_covers_all () =
  List.iter
    (fun n ->
       let sinks = mk_sinks n 5 in
       let best = Lttree.best ~buffers ~max_fanout:4 ~driver:Net.default_driver sinks in
       Alcotest.(check (list int)) "all sinks exactly once" (sink_ids sinks)
         (sink_ids (Lttree.plan_sinks best.Solution.data)))
    [ 1; 2; 5; 9; 14 ]

let test_single_sink () =
  let sinks = mk_sinks 1 3 in
  let best = Lttree.best ~buffers ~max_fanout:4 ~driver:Net.default_driver sinks in
  Alcotest.(check int) "one level" 1 (Lttree.n_levels best.Solution.data);
  Alcotest.(check (float 1e-9)) "no buffer area" 0.0
    (Lttree.plan_area best.Solution.data)

let test_curve_is_frontier () =
  let sinks = mk_sinks 8 11 in
  let c = Lttree.curve ~buffers ~max_fanout:5 sinks in
  Alcotest.(check bool) "frontier" true (Curve.is_frontier c);
  Alcotest.(check bool) "nonempty" false (Curve.is_empty c)

let test_respects_max_fanout () =
  let sinks = mk_sinks 13 7 in
  let c = Lttree.curve ~buffers ~max_fanout:3 sinks in
  let rec chain_width_ok (c : Lttree.chain) =
    let width =
      List.length c.Lttree.directs
      + (match c.Lttree.chain with None -> 0 | Some _ -> 1)
    in
    width <= 3
    && (match c.Lttree.chain with None -> true | Some sub -> chain_width_ok sub)
  in
  Curve.iter
    (fun sol ->
       let p = sol.Solution.data in
       let root_width =
         List.length p.Lttree.root_directs
         + (match p.Lttree.root_chain with None -> 0 | Some _ -> 1)
       in
       Alcotest.(check bool) "root width" true (root_width <= 3);
       match p.Lttree.root_chain with
       | None -> ()
       | Some c -> Alcotest.(check bool) "chain widths" true (chain_width_ok c))
    c

let test_area_matches_buffers () =
  let sinks = mk_sinks 9 13 in
  let c = Lttree.curve ~buffers ~max_fanout:4 sinks in
  Curve.iter
    (fun sol ->
       Alcotest.(check (float 1e-6)) "solution area = plan area"
         sol.Solution.area
         (Lttree.plan_area sol.Solution.data))
    c

let test_buffering_helps_under_load () =
  (* With many heavy sinks, a chain must beat driving everything flat. *)
  let sinks =
    List.init 12 (fun id ->
        Sink.make ~id ~pt:(Point.make id id) ~cap:40.0
          ~req:(1000.0 +. (50.0 *. float_of_int id)))
  in
  let weak_driver = Delay_model.make ~d0:50.0 ~r_drive:9000.0 ~k_slew:0.1 ~s0:30.0 in
  let best = Lttree.best ~buffers ~max_fanout:13 ~driver:weak_driver sinks in
  Alcotest.(check bool) "uses at least one buffer" true
    (Lttree.plan_area best.Solution.data > 0.0);
  (* Flat star required time for comparison. *)
  let total = List.fold_left (fun a s -> a +. s.Sink.cap) 0.0 sinks in
  let flat = 1000.0 -. Delay_model.delay weak_driver ~load:total in
  Alcotest.(check bool) "beats the flat star" true (best.Solution.req > flat)

let test_rejects_bad_args () =
  Alcotest.check_raises "no sinks" (Invalid_argument "Lttree.curve: no sinks")
    (fun () -> ignore (Lttree.curve ~buffers ~max_fanout:4 []));
  Alcotest.check_raises "fanout 1" (Invalid_argument "Lttree.curve: max_fanout < 2")
    (fun () -> ignore (Lttree.curve ~buffers ~max_fanout:1 (mk_sinks 2 1)))

let qtest name ?(count = 30) arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb prop)

let props =
  [ qtest "plans always cover the sinks"
      QCheck.(pair (int_range 1 12) (int_range 0 500))
      (fun (n, seed) ->
         let sinks = mk_sinks n seed in
         let c = Lttree.curve ~buffers ~max_fanout:5 sinks in
         Curve.to_list c
         |> List.for_all (fun sol ->
                List.equal Int.equal
                  (sink_ids (Lttree.plan_sinks sol.Solution.data))
                  (sink_ids sinks)));
    qtest "wider fanout never hurts"
      QCheck.(int_range 0 200)
      (fun seed ->
         let sinks = mk_sinks 8 seed in
         let best mf =
           (Lttree.best ~buffers ~max_fanout:mf ~driver:Net.default_driver sinks)
             .Solution.req
         in
         best 9 >= best 3 -. 1e-9) ]

let suite =
  ( "lttree",
    [ Alcotest.test_case "plan covers all" `Quick test_plan_covers_all;
      Alcotest.test_case "single sink" `Quick test_single_sink;
      Alcotest.test_case "curve frontier" `Quick test_curve_is_frontier;
      Alcotest.test_case "max fanout respected" `Quick test_respects_max_fanout;
      Alcotest.test_case "area accounting" `Quick test_area_matches_buffers;
      Alcotest.test_case "buffering helps" `Quick test_buffering_helps_under_load;
      Alcotest.test_case "bad args" `Quick test_rejects_bad_args ]
    @ props )
