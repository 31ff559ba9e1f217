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
  let nb = Array.length subset in
  let tree =
    match refine_seg with
    | None -> tree
    | Some max_seg -> Rtree.refine ~max_seg tree
  in
  (* One builder serves every batch of the walk: wire extension, join,
     own buffer and close.  Each batch is built before the next one
     starts, and the recursion into a child finishes before its parent
     pushes, so clearing and reusing it is safe.  A batch pushes each
     candidate's cost from the Build.*_cost_into twins through [cost],
     under an int code naming the candidate, and its build_map builds
     trees with the Build.*_data forms only for the points it keeps.
     Joins and closes are capped at [max_curve] points. *)
  let bld = Curve.Builder.create () and cost = Curve.Builder.new_cost () in
  (* One move applied to every solution of [c]: solution i is code i. *)
  let map_build name cost_into data c =
    Curve.Builder.clear bld;
    for i = 0 to Curve.size c - 1 do
      cost_into cost (Curve.get c i);
      Curve.Builder.push_cost bld cost i
    done;
    Curve.Builder.build_map ~name bld ~f:(fun i -> data (Curve.get c i))
  in
  (* Existing solutions first, buffered candidates second, one batch
     prune — the same tie-resolution as adding each candidate into the
     existing curve, without the per-candidate frontier rebuilds.
     Solution i is code i, and buffer bi on solution i is n + i * nb +
     bi. *)
  let close c =
    Curve.Builder.clear bld;
    let n = Curve.size c in
    for i = 0 to n - 1 do
      let sol = Curve.get c i in
      Curve.Builder.push bld ~req:sol.Solution.req ~load:sol.Solution.load
        ~area:sol.Solution.area i
    done;
    for i = 0 to n - 1 do
      let sol = Curve.get c i in
      for bi = 0 to nb - 1 do
        Build.add_root_buffer_cost_into cost subset.(bi) sol;
        Curve.Builder.push_cost bld cost (n + (i * nb) + bi)
      done
    done;
    Curve.Builder.build_map ~name:"Van_ginneken.close" ~max_size:max_curve bld
      ~f:(fun code ->
          if code < n then (Curve.get c code).Solution.data
          else begin
            let t = code - n in
            Build.add_root_buffer_data subset.(t mod nb) (Curve.get c (t / nb))
          end)
  in
  let rec walk = function
    | Rtree.Leaf s ->
      close (Curve.singleton (Build.of_sink s))
    | Rtree.Node n ->
      let loc = n.Rtree.loc in
      let child_curve child =
        map_build "Van_ginneken.wire"
          (fun cost sol -> Build.extend_wire_cost_into cost tech ~to_:loc sol)
          (Build.extend_wire_data ~to_:loc)
          (walk child)
      in
      (* Pair (a, b) of a at ia and b at ib is code ia * |c| + ib. *)
      let join2 acc child =
        let c = child_curve child in
        match acc with
        | None -> Some c
        | Some acc ->
          Curve.Builder.clear bld;
          let nr = Curve.size c in
          for ia = 0 to Curve.size acc - 1 do
            let a = Curve.get acc ia in
            for ib = 0 to nr - 1 do
              Build.join_cost_into cost a (Curve.get c ib);
              Curve.Builder.push_cost bld cost ((ia * nr) + ib)
            done
          done;
          Some
            (Curve.Builder.build_map ~name:"Van_ginneken.join"
               ~max_size:max_curve bld ~f:(fun code ->
                   Build.join_data loc
                     (Curve.get acc (code / nr))
                     (Curve.get c (code mod nr))))
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
          map_build "Van_ginneken.own_buffer"
            (fun cost sol -> Build.add_root_buffer_cost_into cost b sol)
            (Build.add_root_buffer_data b) joined
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
