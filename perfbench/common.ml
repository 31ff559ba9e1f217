(* What the three workloads share: inputs from the seed, the pass loop,
   correctness checks, the traced replays of the flows, and the run's
   environment record. *)

open Merlin_geometry
open Merlin_tech
open Merlin_net
open Merlin_rtree
module Flows = Merlin_flows.Flows
module Clock = Merlin_exec.Clock
module Json = Merlin_report.Json
module Star = Merlin_core.Star_ptree

let tech = Tech.default
let buffers = Buffer_lib.default

let progress fmt = Printf.eprintf (fmt ^^ "\n%!")

type opts = {
  seed : int;
  seconds : float;
  trace : bool;
  cli : string;      (** merlin-cli executable, for the daemon *)
  run_dir : string;  (** scratch directory of this run, relative *)
}

(* ------------------------------------------------------------------ *)
(* Inputs                                                              *)
(* ------------------------------------------------------------------ *)

(* The seed moves every net of a workload by one offset.  Routing only
   sees Manhattan distances, so each seed is a fresh set of inputs (new
   coordinates, new fingerprints, new cache keys) of exactly the same
   difficulty; seed 0 leaves today's nets where they are. *)
let offset seed =
  if seed = 0 then Point.origin
  else begin
    let st = Random.State.make [| seed |] in
    let coord () = 1 + Random.State.int st 100_000 in
    let x = coord () in
    Point.make x (coord ())
  end

let translate d (net : Net.t) =
  Net.make ~name:net.Net.name ~source:(Point.add net.Net.source d)
    ~driver:net.Net.driver
    (Array.to_list
       (Array.map
          (fun (s : Sink.t) ->
             Sink.make ~id:s.Sink.id ~pt:(Point.add s.Sink.pt d) ~cap:s.Sink.cap
               ~req:s.Sink.req)
          net.Net.sinks))

(* ------------------------------------------------------------------ *)
(* Timing                                                              *)
(* ------------------------------------------------------------------ *)

(* Run [f pass] until the next pass would overrun [seconds]; at least
   one pass. *)
let passes ~seconds f =
  let t0 = Clock.monotonic_s () in
  let rec go i acc =
    let r, dt = Clock.timed (fun () -> f i) in
    let acc = r :: acc in
    if Clock.elapsed_s t0 +. dt > seconds then List.rev acc else go (i + 1) acc
  in
  go 0 []

(* [repeat_timed ~batch k f] times [k] rounds of [batch] calls of [f]:
   the last result and the median round time per call.  A round of
   several calls averages out a call too short to time on its own. *)
let repeat_timed ?(batch = 1) k f =
  let round () =
    Clock.timed (fun () ->
        for _ = 2 to batch do ignore (f ()) done;
        f ())
  in
  let runs = List.init k (fun _ -> round ()) in
  ( fst (List.nth runs (k - 1)),
    Perfbench_kit.Stats.median (List.map snd runs) /. float_of_int batch )

let sum f xs = List.fold_left (fun a x -> a +. f x) 0.0 xs

(* Peak resident set of a process, MiB, from /proc; 0 when unreadable. *)
let peak_rss_mb pid =
  let file = Printf.sprintf "/proc/%s/status" pid in
  match open_in file with
  | exception Sys_error _ -> 0.0
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0.0
      | line ->
        (match Scanf.sscanf line "VmHWM: %d kB" (fun kb -> kb) with
         | kb -> float_of_int kb /. 1024.0
         | exception (Scanf.Scan_failure _ | End_of_file | Failure _) -> scan ())
    in
    Fun.protect ~finally:(fun () -> close_in ic) scan

(* ------------------------------------------------------------------ *)
(* Correctness                                                         *)
(* ------------------------------------------------------------------ *)

type tally = { mutable attempted : int; mutable failed : int }

let tally () = { attempted = 0; failed = 0 }

let check tally ok what =
  tally.attempted <- tally.attempted + 1;
  if not ok then begin
    tally.failed <- tally.failed + 1;
    progress "FAILED: %s" what
  end

(* The tree covers the net and re-evaluates to the reported figures. *)
let tree_ok (net : Net.t) (m : Flows.metrics) =
  Result.is_ok (Check.covers net m.Flows.tree)
  &&
  let ev = Eval.net tech net m.Flows.tree in
  ev.Eval.area = m.Flows.area
  && ev.Eval.net_delay = m.Flows.delay
  && ev.Eval.root_req = m.Flows.root_req
  && ev.Eval.wirelength = m.Flows.wirelength
  && Rtree.n_buffers m.Flows.tree = m.Flows.n_buffers

(* Equal results once the wall-clock runtime is set aside. *)
let same (a : Flows.metrics) (b : Flows.metrics) =
  { a with Flows.runtime = 0.0 } = { b with Flows.runtime = 0.0 }

(* ------------------------------------------------------------------ *)
(* Traced replays                                                      *)
(* ------------------------------------------------------------------ *)

module Trace = Perfbench_kit.Trace

(* The curve-kernel counters of Star_ptree, as deltas around a call. *)
let kernel =
  [ ("kernel.joins", Star.n_joins, "count");
    ("kernel.join_adds", Star.n_join_adds, "count");
    ("kernel.join_survivors", Star.n_join_survivors, "count");
    ("kernel.cells", Star.n_cells, "count");
    ("kernel.pulls", Star.n_pulls, "count");
    ("kernel.bytes_join", Star.bytes_join, "B");
    ("kernel.bytes_close", Star.bytes_close, "B");
    ("kernel.bytes_pull", Star.bytes_pull, "B");
    ("kernel.bytes_base", Star.bytes_base, "B") ]

let with_kernel_counts tr f =
  let before = List.map (fun (_, a, _) -> Atomic.get a) kernel in
  let r = f () in
  List.iter2
    (fun (k, a, _) b -> Trace.count tr k (float_of_int (Atomic.get a - b)))
    kernel before;
  r

let metrics_of_tree ~flow ~loops ?(clusters = 0) ?(levels = 0)
    ?(cluster_sizes = []) tr net tree =
  let ev = Trace.span tr "rtree.eval" (fun () -> Eval.net tech net tree) in
  { Flows.flow;
    area = ev.Eval.area;
    delay = ev.Eval.net_delay;
    root_req = ev.Eval.root_req;
    runtime = 0.0;
    n_buffers = Rtree.n_buffers tree;
    wirelength = ev.Eval.wirelength;
    loops;
    clusters;
    levels;
    cluster_sizes;
    tree }

(* Flow III step by step: Tsp.order, Merlin.run ~init,
   Curve.best_min_area, Eval.net — the calls Flows.run makes. *)
let merlin tr ~cfg net =
  let init = Trace.span tr "order.tsp" (fun () -> Merlin_order.Tsp.order net) in
  let out =
    Trace.span tr "core.search" (fun () ->
        with_kernel_counts tr (fun () ->
            let out =
              Merlin_core.Merlin.run ~cfg
                ~objective:Merlin_core.Objective.Best_req ~init ~tech ~buffers
                net
            in
            Option.iter
              (fun (o : Merlin_core.Merlin.outcome) ->
                 Trace.count tr "loops" (float_of_int o.Merlin_core.Merlin.loops);
                 Trace.count tr "merges" (float_of_int o.Merlin_core.Merlin.merges))
              out;
            out))
  in
  match out with
  | None -> failwith "Common.merlin: Best_req found no solution"
  | Some out ->
    let best = out.Merlin_core.Merlin.best in
    let chosen =
      Trace.span tr "curve.best_min_area" (fun () ->
          Merlin_curves.Curve.best_min_area out.Merlin_core.Merlin.curve
            ~req:
              (best.Merlin_curves.Solution.req
               -. (2.0 *. cfg.Merlin_core.Config.quant_req)))
    in
    let chosen = Option.value chosen ~default:best in
    metrics_of_tree ~flow:"III:MERLIN" ~loops:out.Merlin_core.Merlin.loops tr
      net chosen.Merlin_curves.Solution.data.Merlin_core.Build.tree

(* Flow II step by step: Ptree.route, Van_ginneken.insert, Eval.net. *)
let ptree_vg tr net =
  let routed = Trace.span tr "ptree.route" (fun () -> Merlin_ptree.Ptree.route ~tech net) in
  let tree =
    Trace.span tr "ginneken.insert" (fun () ->
        Merlin_ginneken.Van_ginneken.insert ~tech ~buffers net routed)
  in
  metrics_of_tree ~flow:"II:PTREE+VG" ~loops:1 tr net tree

(* Per-layer metrics every flow workload reports from its pass trace. *)
let flow_layers tr ~flows =
  let kernel_sum k = Trace.sum_count tr "core.search" k in
  let joins = kernel_sum "kernel.joins" in
  let adds = kernel_sum "kernel.join_adds" in
  let loops = Trace.sum_count tr "core.search" "loops" in
  let search = Trace.total tr "core.search" in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  [ ("order.tsp_calls", float_of_int (Trace.calls tr "order.tsp"), "count");
    ("order.tsp_s", Trace.total tr "order.tsp", "s");
    ("core.search_s", search, "s");
    ("core.loops", loops, "count");
    ("core.merges", Trace.sum_count tr "core.search" "merges", "count");
    ("core.per_loop_s", ratio search loops, "s") ]
  @ List.map (fun (k, _, unit_) -> (k, kernel_sum k, unit_)) kernel
  @ [ ("kernel.survivor_ratio", ratio (kernel_sum "kernel.join_survivors") adds, "ratio");
      ("kernel.bytes_per_join", ratio (kernel_sum "kernel.bytes_join") joins, "B");
      ("rtree.eval_calls", float_of_int (Trace.calls tr "rtree.eval"), "count");
      ("rtree.eval_s", Trace.total tr "rtree.eval", "s");
      ("flows.other_s", sum (fun (f, other) -> other f) flows, "s") ]
  @ List.map
      (fun (f, other) ->
         let wall = Trace.total tr f in
         ("cover." ^ f, ratio (wall -. other f) wall, "ratio"))
      flows

(* ------------------------------------------------------------------ *)
(* Environment                                                         *)
(* ------------------------------------------------------------------ *)

let command_line cmd =
  match Unix.open_process_in (cmd ^ " 2>/dev/null") with
  | exception Unix.Unix_error _ -> "unknown"
  | ic ->
    let line = try input_line ic with End_of_file -> "unknown" in
    ignore (Unix.close_process_in ic);
    line

let env opts =
  [ ("git_rev",
     Json.Str
       (if Sys.file_exists ".git" then command_line "git rev-parse --short HEAD"
        else "unknown"));
    ("nproc", Json.Str (command_line "nproc"));
    ("ocaml", Json.Str Sys.ocaml_version);
    ("ocamlrunparam",
     Json.Str (Option.value (Sys.getenv_opt "OCAMLRUNPARAM") ~default:""));
    ("seed", Json.Num (float_of_int opts.seed));
    ("seconds", Json.Num opts.seconds);
    ("trace", Json.Bool opts.trace) ]
