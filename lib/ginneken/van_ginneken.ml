open Merlin_geometry
open Merlin_tech
open Merlin_net
open Merlin_rtree
open Merlin_curves
open Merlin_core

let curve ~tech ~buffers ?trials ?(max_curve = 16) ?refine_seg tree =
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
  (* One batch scratch (Batch) serves every batch of the walk: wire
     extension, join and close, each capped at [max_curve].  Each batch
     is built before the next one opens, and the recursion into a child
     finishes before its parent's batch opens, so reusing it is safe.
     Unlike *PTREE's, a closure also tries a buffer on a root that holds
     one: a one-child node at its child's own point hands it the
     buffered roots of the child's closure, and stacking there is part
     of Flow II's result (DESIGN.md §9 "Exact candidate pre-filters"). *)
  let batch =
    Batch.create ~tech ~subset ~max_curve ~quant:(0.0, 0.0, 0.0)
  in
  let close = Batch.close batch ~rebuffer:true in
  (* A node's own buffer on every solution of [c]: solution i is code i. *)
  let own_bld = Curve.Builder.create () and cost = Curve.Builder.new_cost () in
  let own_buffer b c =
    Curve.Builder.clear own_bld;
    for i = 0 to Curve.size c - 1 do
      Build.add_root_buffer_cost_into cost b c i;
      Curve.Builder.push_cost own_bld cost i
    done;
    Curve.Builder.build_map ~name:"Van_ginneken.own_buffer" own_bld
      ~f:(fun i -> Build.add_root_buffer_data b c.Curve.data.(i))
  in
  let rec walk = function
    | Rtree.Leaf s -> close (Curve.singleton (Build.of_sink s))
    | Rtree.Node n ->
      let loc = n.Rtree.loc in
      let join2 acc child =
        let c = Batch.extend batch loc [| walk child |] in
        match acc with
        | None -> Some c
        | Some acc ->
          Batch.split batch 0 acc c;
          Some (Batch.join batch loc 1)
      in
      let joined =
        match List.fold_left join2 None n.Rtree.children with
        | Some c -> c
        | None -> assert false (* nodes have nonempty children *)
      in
      (* Preexisting buffers are kept as fixed parts of the tree. *)
      close
        (match n.Rtree.buffer with
         | None -> joined
         | Some b -> own_buffer b joined)
  in
  walk tree

let insert ~tech ~buffers ?trials ?max_curve ?refine_seg (net : Net.t) tree =
  if not (Point.equal (Rtree.attach_point tree) net.Net.source) then
    invalid_arg "Van_ginneken.insert: tree not rooted at the net source";
  (* Under curve caps the refined DP is not strictly monotone versus the
     node-only one, so evaluate both and keep the better tree. *)
  let best_of c =
    match Curve.best_req (Batch.to_driver ~tech net [| c |]) with
    | Some sol -> sol
    | None -> assert false (* the unbuffered variant always survives *)
  in
  let node_only = best_of (curve ~tech ~buffers ?trials ?max_curve tree) in
  let chosen =
    match refine_seg with
    | None -> node_only
    | Some _ ->
      let refined =
        best_of (curve ~tech ~buffers ?trials ?max_curve ?refine_seg tree)
      in
      if refined.Solution.req >= node_only.Solution.req then refined
      else node_only
  in
  Build.tree chosen.Solution.data
