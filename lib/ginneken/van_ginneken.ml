open Merlin_geometry
open Merlin_tech
open Merlin_net
open Merlin_rtree
open Merlin_curves
open Merlin_core

let buffer_subset buffers ~trials =
  let n = Array.length buffers in
  if n <= trials then buffers
  else
    Array.init trials (fun i -> buffers.(i * (n - 1) / (max 1 (trials - 1))))

let curve ~tech ~buffers ?trials ?(max_curve = 16) ?refine_seg tree =
  let subset =
    match trials with
    | None -> buffers
    | Some trials -> buffer_subset buffers ~trials
  in
  let tree =
    match refine_seg with
    | None -> tree
    | Some max_seg -> Rtree.refine ~max_seg tree
  in
  (* One builder serves every batch of the walk: wire extension, join,
     own buffer and close.  Each batch is built before the next one
     starts, and the recursion into a child finishes before its parent
     pushes, so clearing and reusing it is safe.  Joins and closes are
     capped at [max_curve] points. *)
  let bld = Curve.Builder.create () in
  let map_build name f c =
    Curve.Builder.clear bld;
    Curve.iter (fun sol -> Curve.Builder.add bld (f sol)) c;
    Curve.Builder.build ~name bld
  in
  (* Existing solutions first, buffered candidates second, one batch
     prune — the same tie-resolution as adding each candidate into the
     existing curve, without the per-candidate frontier rebuilds. *)
  let close c =
    Curve.Builder.clear bld;
    Curve.Builder.add_curve bld c;
    Curve.iter
      (fun sol ->
         Array.iter
           (fun b -> Curve.Builder.add bld (Build.add_root_buffer b sol))
           subset)
      c;
    Curve.Builder.build ~name:"Van_ginneken.close" ~max_size:max_curve bld
  in
  let rec walk = function
    | Rtree.Leaf s ->
      close (Curve.singleton (Build.of_sink s))
    | Rtree.Node n ->
      let child_curve child =
        map_build "Van_ginneken.wire"
          (Build.extend_wire tech ~to_:n.Rtree.loc)
          (walk child)
      in
      let join2 acc child =
        let c = child_curve child in
        match acc with
        | None -> Some c
        | Some acc ->
          Curve.Builder.clear bld;
          Curve.iter
            (fun a ->
               Curve.iter
                 (fun b -> Curve.Builder.add bld (Build.join n.Rtree.loc a b))
                 c)
            acc;
          Some
            (Curve.Builder.build ~name:"Van_ginneken.join" ~max_size:max_curve
               bld)
      in
      let joined =
        match List.fold_left join2 None n.Rtree.children with
        | Some c -> c
        | None -> assert false (* nodes have nonempty children *)
      in
      (* Preexisting buffers are kept as fixed parts of the tree. *)
      let with_own_buffer =
        match n.Rtree.buffer with
        | None -> joined
        | Some b ->
          map_build "Van_ginneken.own_buffer" (Build.add_root_buffer b) joined
      in
      close with_own_buffer
  in
  walk tree

let insert ~tech ~buffers ?trials ?max_curve ?refine_seg (net : Net.t) tree =
  if not (Point.equal (Rtree.attach_point tree) net.Net.source) then
    invalid_arg "Van_ginneken.insert: tree not rooted at the net source";
  (* Under curve caps the refined DP is not strictly monotone versus the
     node-only one, so evaluate both and keep the better tree. *)
  let best_of c =
    let bld = Curve.Builder.create () in
    Curve.iter
      (fun s ->
         let gate = Delay_model.delay net.Net.driver ~load:s.Solution.load in
         Curve.Builder.push bld ~req:(s.Solution.req -. gate)
           ~load:s.Solution.load ~area:s.Solution.area s.Solution.data)
      c;
    match
      Curve.best_req (Curve.Builder.build ~name:"Van_ginneken.to_driver" bld)
    with
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
  chosen.Solution.data.Build.tree
