open Merlin_geometry
open Merlin_net
open Merlin_curves
open Merlin_order
open Merlin_core

let candidate_set ?(limit = 40) (net : Net.t) =
  Array.of_list (Hanan.reduced (Net.terminals net) ~limit)

let curve ~tech ?(max_curve = 12) ?(bbox_slack = 0.4) ~candidates ~order
    (net : Net.t) =
  if not (Order.is_permutation order) || Order.length order <> Net.n_sinks net
  then invalid_arg "Ptree.curve: bad order";
  let active =
    match Star_ptree.source_first candidates net.Net.source with
    | Some active -> active
    | None -> invalid_arg "Ptree.curve: source not in candidates"
  in
  let terminals =
    Array.map (fun id -> Star_ptree.Sink_term (Net.sink net id)) order
  in
  Batch.to_driver ~tech net
    (Star_ptree.run_in
       (Star_ptree.context ~tech ~buffers:[||] ~trials:1 ~max_curve
          ~quant:(0.0, 0.0, 0.0) ~bbox_slack ~candidates ())
       ~active ~terminals)

let route ~tech ?max_curve ?candidates ?order (net : Net.t) =
  let candidates =
    match candidates with Some c -> c | None -> candidate_set net
  in
  let order = match order with Some o -> o | None -> Tsp.order net in
  let c = curve ~tech ?max_curve ~candidates ~order net in
  match Curve.best_req c with
  | Some sol -> Build.tree sol.Solution.data
  | None -> assert false (* nonempty net always yields a routing *)
