open Merlin_geometry
open Merlin_tech
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
  let k = Array.length candidates in
  let source_index =
    let rec find p =
      if p >= k then invalid_arg "Ptree.curve: source not in candidates"
      else if Point.equal candidates.(p) net.Net.source then p
      else find (p + 1)
    in
    find 0
  in
  let active =
    Array.init k (fun i ->
        if i = 0 then source_index
        else if i <= source_index then i - 1
        else i)
  in
  let terminals =
    Array.map (fun id -> Star_ptree.Sink_term (Net.sink net id)) order
  in
  let per_candidate =
    Star_ptree.run_in
      (Star_ptree.context ~tech ~buffers:[||] ~trials:1 ~max_curve
         ~quant:(0.0, 0.0, 0.0) ~bbox_slack ~candidates ())
      ~active ~terminals
  in
  let bld = Curve.Builder.create () in
  Array.iter
    (Curve.iter (fun sol ->
       let at_source = Build.extend_wire tech ~to_:net.Net.source sol in
       let gate = Delay_model.delay net.Net.driver ~load:at_source.Solution.load in
       Curve.Builder.push bld
         ~req:(at_source.Solution.req -. gate)
         ~load:at_source.Solution.load ~area:at_source.Solution.area
         at_source.Solution.data))
    per_candidate;
  Curve.Builder.build ~name:"Ptree.to_driver" bld

let route ~tech ?max_curve ?candidates ?order (net : Net.t) =
  let candidates =
    match candidates with Some c -> c | None -> candidate_set net
  in
  let order = match order with Some o -> o | None -> Tsp.order net in
  let c = curve ~tech ?max_curve ~candidates ~order net in
  match Curve.best_req c with
  | Some sol -> sol.Solution.data.Build.tree
  | None -> assert false (* nonempty net always yields a routing *)
