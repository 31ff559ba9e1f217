open Merlin_geometry
open Merlin_tech
open Merlin_net
open Merlin_rtree

type metrics = {
  flow : string;
  area : float;
  delay : float;
  root_req : float;
  runtime : float;
  n_buffers : int;
  wirelength : int;
  loops : int;
  clusters : int;
  levels : int;
  cluster_sizes : int list;
  tree : Rtree.t;
}

(* Wall-clock runtimes come from the monotonic clock: gettimeofday is
   NTP-step sensitive and would corrupt the runtime/speedup columns. *)
let timed f = Merlin_exec.Clock.timed f

let metrics_of_tree ~flow ~tech ~loops ?(clusters = 0) ?(levels = 0)
    ?(cluster_sizes = []) ~runtime (net : Net.t) tree =
  let ev = Eval.net tech net tree in
  { flow;
    area = ev.Eval.area;
    delay = ev.Eval.net_delay;
    root_req = ev.Eval.root_req;
    runtime;
    n_buffers = Rtree.n_buffers tree;
    wirelength = ev.Eval.wirelength;
    loops;
    clusters;
    levels;
    cluster_sizes;
    tree }

(* ---------- Flow I: LTTREE + PTREE ---------- *)

(* Embed one LT-tree level: route [directs] plus (optionally) the next
   chain link — already embedded, presented as a pseudo-sink — from
   [source] driven by [driver_model].  The routed pseudo-leaf is then
   substituted by the actual subtree. *)
let route_level ~tech ~source ~driver_model ~directs ~sub =
  let pseudo_id = List.length directs in
  let local_sinks =
    List.mapi (fun i s -> Sink.make ~id:i ~pt:s.Sink.pt ~cap:s.Sink.cap ~req:s.Sink.req)
      directs
  in
  let local_sinks, substitute =
    match sub with
    | None -> (local_sinks, None)
    | Some (subtree, sub_req, sub_load) ->
      let pseudo =
        Sink.make ~id:pseudo_id ~pt:(Rtree.attach_point subtree) ~cap:sub_load
          ~req:sub_req
      in
      (local_sinks @ [ pseudo ], Some subtree)
  in
  let local_net =
    Net.make ~name:"lt-level" ~source ~driver:driver_model local_sinks
  in
  let routed = Merlin_ptree.Ptree.route ~tech local_net in
  (* Map local leaves back: real sinks to the originals, the pseudo sink
     to the embedded chain subtree. *)
  let original = Array.of_list directs in
  let rec restore = function
    | Rtree.Leaf s ->
      if s.Sink.id = pseudo_id then
        (match substitute with
         | Some subtree -> subtree
         | None ->
           invalid_arg "Flows.route_level: pseudo sink without a subtree")
      else Rtree.Leaf original.(s.Sink.id)
    | Rtree.Node n ->
      Rtree.Node { n with Rtree.children = List.map restore n.Rtree.children }
  in
  restore routed

let run_flow1 ~tech ~buffers ~max_fanout (net : Net.t) =
  let build () =
    let sinks = Array.to_list net.Net.sinks in
    let best =
      Merlin_lttree.Lttree.best ~buffers ~max_fanout ~driver:net.Net.driver
        sinks
    in
    let plan = best.Merlin_curves.Solution.data in
    let rec embed_chain (c : Merlin_lttree.Lttree.chain) =
      let sub =
        match c.Merlin_lttree.Lttree.chain with
        | None -> None
        | Some next ->
          let subtree = embed_chain next in
          let ev = Eval.subtree tech subtree in
          Some (subtree, ev.Eval.req, ev.Eval.load)
      in
      (* Place the link's buffer at the center of mass of what it directly
         drives: its own sinks and the next link's position. *)
      let anchor_pts =
        List.map (fun s -> s.Sink.pt) c.Merlin_lttree.Lttree.directs
        @ (match sub with
           | None -> []
           | Some (subtree, _, _) -> [ Rtree.attach_point subtree ])
      in
      let pos = Point.center_of_mass anchor_pts in
      let routed =
        route_level ~tech ~source:pos
          ~driver_model:c.Merlin_lttree.Lttree.buffer.Buffer_lib.model
          ~directs:c.Merlin_lttree.Lttree.directs ~sub
      in
      (* The level's buffer sits at [pos] and drives the routed level. *)
      Rtree.node ~buffer:c.Merlin_lttree.Lttree.buffer pos [ routed ]
    in
    let sub =
      match plan.Merlin_lttree.Lttree.root_chain with
      | None -> None
      | Some c ->
        let subtree = embed_chain c in
        let ev = Eval.subtree tech subtree in
        Some (subtree, ev.Eval.req, ev.Eval.load)
    in
    route_level ~tech ~source:net.Net.source ~driver_model:net.Net.driver
      ~directs:plan.Merlin_lttree.Lttree.root_directs ~sub
  in
  let tree, runtime = timed build in
  metrics_of_tree ~flow:"I:LTTREE+PTREE" ~tech ~loops:1 ~runtime net tree

(* ---------- Flow II: PTREE + van Ginneken ---------- *)

let run_flow2 ~tech ~buffers ~refine_seg (net : Net.t) =
  (* The paper's Flow II applies [Gi90] to the fixed PTREE routing: buffer
     sites are the routing's own Steiner/branch points.  Pass [refine_seg]
     to additionally split long edges (stronger than the paper's setup). *)
  let build () =
    let routed = Merlin_ptree.Ptree.route ~tech net in
    Merlin_ginneken.Van_ginneken.insert ~tech ~buffers ?refine_seg net routed
  in
  let tree, runtime = timed build in
  metrics_of_tree ~flow:"II:PTREE+VG" ~tech ~loops:1 ~runtime net tree

(* ---------- Flow III: MERLIN ---------- *)

exception Infeasible of string

let run_flow3 ~tech ~buffers ~cfg ~objective (net : Net.t) =
  let cfg =
    match cfg with
    | Some c -> c
    | None -> Merlin_core.Config.scaled (Net.n_sinks net)
  in
  let out, runtime =
    timed (fun () -> Merlin_core.Merlin.run ~cfg ~objective ~tech ~buffers net)
  in
  match out with
  | None ->
    (* Only the constrained objectives can be infeasible; Best_req
       always yields a curve point. *)
    raise
      (Infeasible
         (Format.asprintf
            "objective %a infeasible on the final solution curve"
            Merlin_core.Objective.pp objective))
  | Some out ->
    let chosen = Merlin_core.Merlin.pick ~cfg ~objective out in
    metrics_of_tree ~flow:"III:MERLIN" ~tech
      ~loops:out.Merlin_core.Merlin.loops ~runtime net
      chosen.Merlin_curves.Solution.data.Merlin_core.Build.tree

(* ---------- The unified entry point ---------- *)

type algo =
  | Lttree_ptree of { max_fanout : int }
  | Ptree_vg of { refine_seg : int option }
  | Merlin of {
      cfg : Merlin_core.Config.t option;
      objective : Merlin_core.Objective.t;
    }
  | Hier of {
      cluster : Merlin_hier.Cluster.config;
      inner : algo;
    }

type spec = {
  tech : Tech.t;
  buffers : Buffer_lib.t;
  algo : algo;
}

(* Per-cluster MERLIN knobs for the hierarchical flow.  A hier run pays
   the inner flow once per cluster (dozens of times on a 1000-sink
   net), so the default leans hard toward speed: small frontier, few
   candidates, coarse quantisation, two loops.  The cluster trees only
   need to be locally good — the top level re-optimizes over their
   roots. *)
let hier_merlin_cfg =
  { Merlin_core.Config.default with
    Merlin_core.Config.alpha = 4;
    max_curve = 3;
    candidate_limit = 4;
    buffer_trials = 2;
    quant_req = 50.0;
    quant_load = 30.0;
    quant_area = 20.0;
    max_iters = 1 }

let default_algo = function
  | "lttree-ptree" -> Some (Lttree_ptree { max_fanout = 10 })
  | "ptree-vg" -> Some (Ptree_vg { refine_seg = None })
  | "merlin" ->
    Some (Merlin { cfg = None; objective = Merlin_core.Objective.Best_req })
  | "hier" ->
    Some
      (Hier
         { cluster = Merlin_hier.Cluster.default;
           inner =
             Merlin
               { cfg = Some hier_merlin_cfg;
                 objective = Merlin_core.Objective.Best_req } })
  | _ -> None

(* ---------- Flow IV: two-level hierarchical ---------- *)

let rec run ?pool ({ tech; buffers; algo } as spec) net =
  match algo with
  | Lttree_ptree { max_fanout } -> run_flow1 ~tech ~buffers ~max_fanout net
  | Ptree_vg { refine_seg } -> run_flow2 ~tech ~buffers ~refine_seg net
  | Merlin { cfg; objective } -> run_flow3 ~tech ~buffers ~cfg ~objective net
  | Hier { cluster; inner } ->
    (match inner with
     | Hier _ -> invalid_arg "Flows.run: hier inner flow must be flat"
     | Lttree_ptree _ | Ptree_vg _ | Merlin _ -> ());
    let inner_spec = { spec with algo = inner } in
    let h, runtime =
      timed (fun () ->
          Merlin_hier.Hier.route ~tech ~cluster ?pool
            (* The inner run's only nondeterminism is its runtime
               telemetry (Clock.timed); the routed tree and every other
               metric are bit-identical at any -j, which is what the
               hier determinism qcheck suite pins down. *)
            ~route:(fun _part sub -> run inner_spec sub) (* check: nondet-ok *)
            ~tree_of:(fun (m : metrics) -> m.tree)
            net)
    in
    (* [parts] already contains every level's routes including the
       root-most one — sum once. *)
    let loops =
      Array.fold_left
        (fun acc (m : metrics) -> acc + m.loops)
        0 h.Merlin_hier.Hier.parts
    in
    metrics_of_tree ~flow:"IV:HIER" ~tech ~loops
      ~clusters:h.Merlin_hier.Hier.n_clusters
      ~levels:h.Merlin_hier.Hier.levels
      ~cluster_sizes:(Array.to_list h.Merlin_hier.Hier.sizes)
      ~runtime net h.Merlin_hier.Hier.tree

let wire_metrics ?(with_tree = false) (m : metrics) =
  { Merlin_report.Metrics.flow = m.flow;
    area = m.area;
    delay = m.delay;
    root_req = m.root_req;
    runtime = m.runtime;
    n_buffers = m.n_buffers;
    wirelength = m.wirelength;
    loops = m.loops;
    clusters = m.clusters;
    levels = m.levels;
    cluster_sizes = m.cluster_sizes;
    tree = (if with_tree then Some m.tree else None) }

let all ~tech ~buffers ?cfg3 net =
  let on algo = run { tech; buffers; algo } net in
  [ on (Lttree_ptree { max_fanout = 10 });
    on (Ptree_vg { refine_seg = None });
    on (Merlin { cfg = cfg3; objective = Merlin_core.Objective.Best_req }) ]
