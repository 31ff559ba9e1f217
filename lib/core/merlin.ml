open Merlin_net
open Merlin_curves
open Merlin_order

let src = Logs.Src.create "merlin" ~doc:"MERLIN search engine"

module Log = (val Logs.src_log src : Logs.LOG)

type outcome = {
  best : Build.t Solution.t;
  curve : Build.t Curve.t;
  tree : Merlin_rtree.Rtree.t;
  hierarchy : Catree.t;
  order : Order.t;
  loops : int;
  req_history : float list;
  merges : int;
}

let run ?candidates ?(cfg = Config.default) ?(objective = Objective.Best_req)
    ?init ~tech ~buffers (net : Net.t) =
  let init = match init with Some o -> o | None -> Tsp.order net in
  (* Theorem 7 guarantees strict improvement until the fixed point; under
     quantised curves we additionally stop once the improvement falls
     below one required-time bucket. *)
  let tolerance = max cfg.Config.quant_req 1e-6 in
  let outcome_of result (best : Build.t Solution.t) history total_merges =
    { best;
      curve = result.Bubble_construct.curve;
      tree = best.Solution.data.Build.tree;
      hierarchy = Bubble_construct.hierarchy best;
      order = Bubble_construct.realized_order best;
      loops = List.length history;
      req_history = List.rev history;
      merges = total_merges }
  in
  (* Keep the best outcome seen: under quantised curves a later loop can
     be marginally worse, and the search must never return it. *)
  let rec loop order loops history total_merges best_so_far =
    let result =
      Bubble_construct.construct ?candidates ~cfg ~tech ~buffers net order
    in
    let total_merges = total_merges + result.Bubble_construct.merges in
    match Objective.choose objective result.Bubble_construct.curve with
    | None ->
      Option.map
        (fun (res, best) -> outcome_of res best history total_merges)
        best_so_far
    | Some best ->
      let next = Bubble_construct.realized_order best in
      let improved, best_so_far =
        match best_so_far with
        | Some (_, prev) when prev.Solution.req >= best.Solution.req -. 1e-12 ->
          (false, best_so_far)
        | _ -> (true, Some (result, best))
      in
      let small_step =
        match history with
        | prev :: _ -> best.Solution.req -. prev < tolerance
        | [] -> false
      in
      let history = best.Solution.req :: history in
      Log.debug (fun m ->
          m "loop %d: req=%.1f order=%a" loops best.Solution.req Order.pp next);
      if
        Order.equal next order || small_step || (not improved)
        || loops >= cfg.Config.max_iters
      then
        Option.map
          (fun (res, b) -> outcome_of res b history total_merges)
          best_so_far
      else loop next (loops + 1) history total_merges best_so_far
  in
  loop init 1 [] 0 None

let pick ~cfg ~objective out =
  match objective with
  | Objective.Best_req -> (
    (* The paper extracts "the solution with the best trade-off between
       required time and total buffer area": take the cheapest solution
       within two quantisation buckets of the best required time. *)
    let slack = 2.0 *. cfg.Config.quant_req in
    let floor = out.best.Solution.req -. slack in
    match Curve.best_min_area out.curve ~req:floor with
    | Some s -> s
    | None -> out.best)
  | Objective.Max_req_under_area _ | Objective.Min_area_over_req _ ->
    (* A constrained objective already names its curve point. *)
    out.best
