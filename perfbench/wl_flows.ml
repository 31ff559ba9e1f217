(* The in-process workloads: Table-1 flows I-III ([table1]) and the
   hierarchical Flow IV on large nets ([hier]).  Each pass runs every
   (flow, net) item through Flows.run and checks the tree; the traced
   run replays each item step by step through the layers' public
   functions and checks the replay gives the same result. *)

open Merlin_net
open Common
module Stats = Perfbench_kit.Stats

type item = {
  label : string;
  flow : string;  (** "flow1" .. "flow4": the span and metric stem *)
  net : Net.t;
  spec : Flows.spec;
  replay : Trace.t -> Flows.metrics;  (** runs inside the flow's span *)
  beside : (Trace.t -> unit) option;  (** traced call next to the flow *)
  reps : int;  (** untraced runs per pass; short items take more *)
}

type pass = {
  times : float list array;  (** untraced Flows.run walls per item *)
  alloc : float;        (** bytes allocated by those runs *)
  layers : (string * float * string) list;  (** traced run only *)
  spans : Trace.t;
}

let run_pass opts tally ~items ~first ~layers =
  let tr = Trace.create () in
  let alloc = ref 0.0 in
  let times =
    Array.mapi
      (fun i it ->
         (* Every run starts from a collected heap, so the garbage of
            the run before it is not charged to it. *)
         let one () =
           Gc.full_major ();
           Clock.timed (fun () -> Flows.run it.spec it.net)
         in
         let a0 = Gc.allocated_bytes () in
         let m, dt = one () in
         alloc := !alloc +. (Gc.allocated_bytes () -. a0);
         let dts = dt :: List.init (it.reps - 1) (fun _ -> snd (one ())) in
         let what = Printf.sprintf "%s %s" it.flow it.label in
         check tally (tree_ok it.net m)
           (what ^ ": tree fails Check.covers or does not re-evaluate");
         (match first.(i) with
          | None -> first.(i) <- Some m
          | Some m0 -> check tally (same m0 m) (what ^ ": result changed between passes"));
         if opts.trace then begin
           (* Both traced calls start from a collected heap, so a
              beside-call and the flow it is subtracted from see the
              same GC state. *)
           Gc.full_major ();
           let m' =
             match Trace.span tr ~req:i it.flow (fun () -> it.replay tr) with
             | m' -> Some m'
             | exception (Failure _ | Invalid_argument _) -> None
           in
           check tally
             (match m' with Some m' -> same m m' | None -> false)
             (what ^ ": traced replay differs from Flows.run");
           Option.iter
             (fun beside ->
                Gc.full_major ();
                Trace.span tr ~req:i (it.flow ^ ".beside") (fun () -> beside tr))
             it.beside
         end;
         dts)
      items
  in
  let layers =
    if not opts.trace then []
    else begin
      let flows = List.sort_uniq compare (Array.to_list (Array.map (fun it -> it.flow) items)) in
      let traced = sum (Trace.total tr) flows in
      let untraced = Array.fold_left (fun a ts -> a +. Stats.median ts) 0.0 times in
      layers tr @ [ ("trace.overhead", (traced -. untraced) /. untraced, "ratio") ]
    end
  in
  { times; alloc = !alloc; layers; spans = tr }

let run opts tally ~setup_s ~items ~layers =
  let items = Array.of_list items in
  let first = Array.make (Array.length items) None in
  let rss = ref 0.0 in
  let passes =
    passes ~seconds:opts.seconds (fun p ->
        progress "[pass %d]" p;
        let r = run_pass opts tally ~items ~first ~layers in
        (* Peak memory of set-up and one pass: later passes grow the
           heap by an amount that varied from run to run, and more
           with the number of passes that fit. *)
        if p = 0 then rss := peak_rss_mb "self";
        r)
  in
  let results = Array.map (fun m -> Option.get m) first in
  let flows = List.sort_uniq compare (Array.to_list (Array.map (fun it -> it.flow) items)) in
  (* Each item's Flows.run wall, median over every run of the item. *)
  let item_s =
    Array.mapi (fun i _ -> Stats.median (List.concat_map (fun p -> p.times.(i)) passes)) items
  in
  let flow_s f =
    let acc = ref 0.0 in
    Array.iteri (fun i it -> if it.flow = f then acc := !acc +. item_s.(i)) items;
    !acc
  in
  let end_to_end =
    [ ("setup_s", setup_s, "s");
      ("wall_s", Array.fold_left ( +. ) 0.0 item_s, "s");
      ("net_ms", Stats.gmean (Array.to_list item_s) *. 1000.0, "ms");
      ("delay_ps", sum (fun (m : Flows.metrics) -> m.Flows.delay) (Array.to_list results), "ps");
      ("area", sum (fun (m : Flows.metrics) -> m.Flows.area) (Array.to_list results), "1000lambda2");
      ("alloc_gb", Stats.median (List.map (fun p -> p.alloc /. 1e9) passes), "GB");
      ("peak_rss_mb", !rss, "MiB") ]
  in
  let per_layer =
    match passes with
    | [] | { layers = []; _ } :: _ -> []
    | p0 :: _ ->
      List.map (fun f -> (f ^ "_s", flow_s f, "s")) flows
      @ List.map
          (fun (name, _, unit_) ->
             ( name,
               Stats.median
                 (List.map
                    (fun p ->
                       let _, v, _ = List.find (fun (n, _, _) -> n = name) p.layers in
                       v)
                    passes),
               unit_ ))
          p0.layers
  in
  let details =
    Json.Obj
      [ ("passes", Json.Num (float_of_int (List.length passes)));
        ("items",
         Json.List
           (Array.to_list
              (Array.mapi
                 (fun i it ->
                    let m = results.(i) in
                    Json.Obj
                      [ ("flow", Json.Str it.flow);
                        ("net", Json.Str it.label);
                        ("sinks", Json.Num (float_of_int (Net.n_sinks it.net)));
                        ("delay", Json.Num m.Flows.delay);
                        ("area", Json.Num m.Flows.area);
                        ("loops", Json.Num (float_of_int m.Flows.loops));
                        ("times",
                         Json.List
                           (List.concat_map
                              (fun p -> List.map (fun t -> Json.Num t) p.times.(i))
                              passes)) ])
                 items))) ]
  in
  (end_to_end, per_layer, details, List.map (fun p -> p.spans) passes)

(* ------------------------------------------------------------------ *)
(* table1                                                              *)
(* ------------------------------------------------------------------ *)

(* Flow III under the Table-2 cap: at most 3 loops, candidate limit 8,
   the quick profile's quantisation. *)
let cfg3 net =
  let base = Merlin_core.Config.scaled (Net.n_sinks net) in
  { base with
    Merlin_core.Config.max_iters = 3;
    candidate_limit = min 8 base.Merlin_core.Config.candidate_limit;
    max_curve = min 5 base.Merlin_core.Config.max_curve;
    quant_req = Float.max 20.0 base.Merlin_core.Config.quant_req;
    quant_load = Float.max 15.0 base.Merlin_core.Config.quant_load;
    quant_area = Float.max 10.0 base.Merlin_core.Config.quant_area }

(* Which Table-1 nets each flow runs, by sink count. *)
let flow1_max = 13
let flow2_max = 16
let flow3_max = 9

(* Flow II takes 10-100 ms a net: run it several times a pass so that
   its medians, which [net_ms] weighs like any other net's, rest on a
   dozen samples in a run. *)
let flow2_reps = 6

let table1_inputs seed =
  let d = offset seed in
  List.filter_map
    (fun (circuit, name, net) ->
       if Net.n_sinks net <= flow2_max then
         Some (circuit ^ "/" ^ name, translate d net)
       else None)
    (Net_gen.table1_nets tech)

let table1_items nets =
  let spec algo = { Flows.tech; buffers; algo } in
  let lttree_beside net tr =
    let a0 = Gc.allocated_bytes () in
    ignore
      (Trace.span tr "lttree.best" (fun () ->
           let r =
             Merlin_lttree.Lttree.best ~buffers ~max_fanout:10
               ~driver:net.Net.driver (Array.to_list net.Net.sinks)
           in
           Trace.count tr "alloc_bytes" (Gc.allocated_bytes () -. a0);
           r))
  in
  let per_flow flow keep mk =
    List.filter_map
      (fun (label, net) -> if keep (Net.n_sinks net) then Some (mk flow label net) else None)
      nets
  in
  per_flow "flow1" (fun n -> n <= flow1_max) (fun flow label net ->
      let spec = spec (Flows.Lttree_ptree { max_fanout = 10 }) in
      { label; flow; net; spec;
        replay = (fun _ -> Flows.run spec net);
        beside = Some (lttree_beside net);
        reps = 1 })
  @ per_flow "flow2" (fun n -> n <= flow2_max) (fun flow label net ->
      { label; flow; net;
        spec = spec (Flows.Ptree_vg { refine_seg = None });
        replay = (fun tr -> ptree_vg tr net);
        beside = None;
        reps = flow2_reps })
  @ per_flow "flow3" (fun n -> n <= flow3_max) (fun flow label net ->
      let cfg = cfg3 net in
      { label; flow; net;
        spec =
          spec
            (Flows.Merlin
               { cfg = Some cfg; objective = Merlin_core.Objective.Best_req });
        replay = (fun tr -> merlin tr ~cfg net);
        beside = None;
        reps = 1 })

let table1_layers tr =
  let busy name = Trace.total tr name in
  let calls name = float_of_int (Trace.calls tr name) in
  [ ("lttree.calls", calls "lttree.best", "count");
    ("lttree.busy_s", busy "lttree.best", "s");
    ("lttree.alloc_mb", Trace.sum_count tr "lttree.best" "alloc_bytes" /. 1e6, "MB");
    ("ptree.calls", calls "ptree.route", "count");
    ("ptree.busy_s", busy "ptree.route", "s");
    ("ginneken.calls", calls "ginneken.insert", "count");
    ("ginneken.busy_s", busy "ginneken.insert", "s");
    ("curve.best_min_area_s", busy "curve.best_min_area", "s") ]
  @ flow_layers tr
      ~flows:
        [ ("flow1", fun f -> busy f -. busy "lttree.best");
          ("flow2", Trace.self_total tr);
          ("flow3", Trace.self_total tr) ]

let table1 opts tally =
  let nets, setup_s = repeat_timed ~batch:20 21 (fun () -> table1_inputs opts.seed) in
  run opts tally ~setup_s ~items:(table1_items nets) ~layers:table1_layers

(* ------------------------------------------------------------------ *)
(* hier                                                                *)
(* ------------------------------------------------------------------ *)

let hier_sinks = 300
let hier_shapes = [ Net_gen.Clock_grid; Net_gen.High_fanout; Net_gen.Clustered ]

let hier_inputs seed =
  let d = offset seed in
  List.map
    (fun shape ->
       let name = Printf.sprintf "%s%d" (Net_gen.shape_name shape) hier_sinks in
       (name, translate d (Net_gen.large_net ~seed:42 ~name ~shape ~n:hier_sinks tech)))
    hier_shapes

(* Flow IV step by step: Hier.route with a timing router callback that
   replays Flow III per part, then Eval.net of the stitched tree. *)
let hier_replay ~cluster ~inner net tr =
  let h =
    Trace.span tr "hier.route" (fun () ->
        Merlin_hier.Hier.route ~tech ~cluster
          ~route:(fun _part sub ->
              Trace.span tr "hier.part" (fun () -> merlin tr ~cfg:inner sub))
          ~tree_of:(fun (m : Flows.metrics) -> m.Flows.tree)
          net)
  in
  let open Merlin_hier.Hier in
  Trace.count tr "levels" (float_of_int h.levels);
  Trace.count tr "clusters" (float_of_int h.n_clusters);
  let loops = Array.fold_left (fun a (m : Flows.metrics) -> a + m.Flows.loops) 0 h.parts in
  metrics_of_tree ~flow:"IV:HIER" ~loops ~clusters:h.n_clusters ~levels:h.levels
    ~cluster_sizes:(Array.to_list h.sizes) tr net h.tree

let hier_items nets =
  let cluster, inner =
    match Flows.default_algo "hier" with
    | Some (Flows.Hier { cluster; inner = Flows.Merlin { cfg = Some inner; _ } }) ->
      (cluster, inner)
    | _ -> failwith "Wl_flows.hier_items: the default hier flow is not Hier over Merlin"
  in
  let spec =
    match Flows.default_algo "hier" with
    | Some algo -> { Flows.tech; buffers; algo }
    | None -> assert false
  in
  List.map
    (fun (label, net) ->
       { label; flow = "flow4"; net; spec;
         replay = hier_replay ~cluster ~inner net;
         beside =
           Some
             (fun tr ->
                ignore
                  (Trace.span tr "hier.partition" (fun () ->
                       Merlin_hier.Cluster.partition cluster net)));
         reps = 1 })
    nets

let hier_layers tr =
  let parts = List.map Trace.duration (Trace.named tr "hier.part") in
  let parts_s = List.fold_left ( +. ) 0.0 parts in
  [ ("hier.partition_s", Trace.total tr "hier.partition", "s");
    ("hier.parts", float_of_int (List.length parts), "count");
    ("hier.parts_s", parts_s, "s");
    ("hier.part_p50_s", Stats.percentile ~p:0.5 parts, "s");
    ("hier.part_max_s", List.fold_left Float.max 0.0 parts, "s");
    ("hier.glue_s", Trace.total tr "hier.route" -. parts_s, "s");
    ("hier.levels", Trace.sum_count tr "flow4" "levels", "count");
    ("hier.clusters", Trace.sum_count tr "flow4" "clusters", "count") ]
  @ flow_layers tr ~flows:[ ("flow4", Trace.self_total tr) ]

let hier opts tally =
  let nets, setup_s = repeat_timed ~batch:4 21 (fun () -> hier_inputs opts.seed) in
  run opts tally ~setup_s ~items:(hier_items nets) ~layers:hier_layers
