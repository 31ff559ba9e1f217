(* Trade-off exploration: the two problem variants of paper Section III.1
   on one net.

   MERLIN's engine returns a full three-dimensional non-inferior curve, so
   variant I (max required time under an area cap) and variant II (min
   area over a required-time floor) are just different selections from the
   same run.  This example prints the final curve and walks both
   variants. *)

open Merlin_tech
open Merlin_net
open Merlin_curves
module Core = Merlin_core

let () =
  let tech = Tech.default in
  let buffers = Buffer_lib.default in
  let net = Net_gen.random_net ~seed:7 ~name:"tradeoff" ~n:7 tech in
  let cfg = Core.Config.scaled 7 in
  let order = Merlin_order.Tsp.order net in
  let result = Core.Bubble_construct.construct ~cfg ~tech ~buffers net order in
  let curve = result.Core.Bubble_construct.curve in
  Format.printf "Net %s: final non-inferior curve (%d points)@." net.Net.name
    (Curve.size curve);
  Format.printf "  %-10s %-10s %-10s %s@." "req(ps)" "load(fF)" "area" "buffers";
  for i = 0 to Curve.size curve - 1 do
    let sol = Curve.get curve i in
    Format.printf "  %-10.1f %-10.2f %-10.2f %d@." sol.Solution.req
      sol.Solution.load sol.Solution.area
      (Merlin_rtree.Rtree.n_buffers sol.Solution.data.Core.Build.tree)
  done;
  (* Variant I: maximise required time subject to an area budget. *)
  Format.printf "@.Variant I (max req s.t. area <= budget):@.";
  List.iter
    (fun budget ->
       match Core.Objective.choose (Core.Objective.Max_req_under_area budget) curve with
       | None -> Format.printf "  budget %6.1f: infeasible@." budget
       | Some s ->
         Format.printf "  budget %6.1f: req=%8.1f area=%6.2f@." budget
           s.Solution.req s.Solution.area)
    [ 0.0; 10.0; 40.0; 160.0 ];
  (* Variant II: minimise area subject to a required-time floor. *)
  let best = Option.get (Curve.best_req curve) in
  Format.printf "@.Variant II (min area s.t. req >= floor):@.";
  List.iter
    (fun slack ->
       let floor = best.Solution.req -. slack in
       match Core.Objective.choose (Core.Objective.Min_area_over_req floor) curve with
       | None -> Format.printf "  floor %8.1f: infeasible@." floor
       | Some s ->
         Format.printf "  floor %8.1f: req=%8.1f area=%6.2f@." floor
           s.Solution.req s.Solution.area)
    [ 0.0; 50.0; 200.0; 500.0 ]
