(* Benchmark harness: regenerates the paper's Table 1 and Table 2 plus the
   ablations documented in DESIGN.md, and provides Bechamel micro
   benchmarks ("speed").

     dune exec bench/main.exe -- [table1|table2|hier|curve|serve|ablations|speed|all]
                                 [--full|--smoke] [--seconds N]
                                 [-j N] [--stats] [--json FILE]

   Default is a "quick" profile sized for a laptop-class single core (the
   larger paper nets run with the scaled knob presets of
   Merlin_core.Config); --full uses the paper's own settings where
   feasible and the complete net/circuit list; --smoke is a sub-minute
   subset used by the @bench-smoke dune alias.

   -j N runs the per-net/per-circuit/per-config work on a Merlin_exec
   domain pool with N workers; row order, ratio averages and JSON output
   are independent of N by the pool's deterministic map.  --stats dumps
   the pool telemetry on exit; --json FILE writes the rows of the single
   table being run (with jobs and git rev) for machine-readable perf
   trajectories, e.g. BENCH_table1.json. *)

open Merlin_tech
open Merlin_net
open Merlin_report.Report
module Flows = Merlin_flows.Flows
module FR = Merlin_circuit.Flow_runner
module Pool = Merlin_exec.Pool
module Clock = Merlin_exec.Clock
module Json = Merlin_report.Json
module Kernel = Merlin_core.Star_ptree

let tech = Tech.default
let buffers = Buffer_lib.default

type opts = {
  full : bool;
  smoke : bool;
  jobs : int;
  show_stats : bool;
  json : string option;
  seconds : float;
}

(* One worker pool for the whole invocation (None when -j 1): tables
   reuse it so --stats aggregates across everything that ran. *)
let pmap pool f xs =
  match pool with
  | None -> List.map f xs
  | Some p -> Pool.map ~chunk:1 p f xs

let progress fmt = Printf.eprintf (fmt ^^ "\n%!")

(* ------------------------------------------------------------------ *)
(* JSON emission                                                       *)
(* ------------------------------------------------------------------ *)

let git_rev () =
  match
    let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
    let line = input_line ic in
    ignore (Unix.close_process_in ic);
    line
  with
  | line -> line
  | exception End_of_file -> "unknown"
  | exception Sys_error _ -> "unknown"
  | exception Unix.Unix_error _ -> "unknown"

(* BENCH_*.json documents are built from the repository's shared JSON
   layer (Merlin_report.Json), the same one behind the metrics wire
   schema and the serving protocol, so every machine-readable artifact
   prints numbers and escapes strings identically. *)

let js s = Json.Str s
let jf f = Json.Num f
let ji i = Json.Num (float_of_int i)

(* Frontier-kernel telemetry: candidate counts per DP step (see
   Star_ptree).  Counts are representation-independent — one increment
   per candidate solution offered to the frontier — so before/after
   kernel comparisons in BENCH_curve.json share the same scale.  Join
   and closure candidates the exact pre-filters leave out are counted
   apart from the pushes: pushes plus filtered is the whole product. *)
let counter_fields () =
  let c = Kernel.counts () in
  [ ("n_join_adds", ji c.join_adds); ("n_join_filtered", ji c.join_filtered);
    ("n_close_adds", ji c.close_adds); ("n_close_filtered", ji c.close_filtered);
    ("n_pull_adds", ji c.pull_adds); ("n_base_adds", ji c.base_adds);
    ("n_cells", ji c.cells); ("n_pulls", ji c.pulls);
    ("n_joins", ji c.joins); ("n_join_survivors", ji c.join_survivors);
    ("bytes_join", ji c.bytes_join); ("bytes_close", ji c.bytes_close);
    ("bytes_pull", ji c.bytes_pull); ("bytes_base", ji c.bytes_base) ]

let write_json ~opts ~table ~wall_s rows =
  match opts.json with
  | None -> ()
  | Some file ->
    let doc =
      Json.Obj
        ([ ("table", js table);
           ("jobs", ji opts.jobs);
           ("git_rev", js (git_rev ()));
           ("wall_s", jf wall_s) ]
        @ counter_fields ()
        @ [ ("rows", Json.List rows) ])
    in
    let oc = open_out file in
    output_string oc (Json.to_string doc);
    output_char oc '\n';
    close_out oc;
    progress "[%s] wrote %s" table file

(* ------------------------------------------------------------------ *)
(* Table 1                                                             *)
(* ------------------------------------------------------------------ *)

let table1 ~opts pool () =
  let nets = Net_gen.table1_nets tech in
  let nets =
    if opts.full then nets
    else if opts.smoke then
      (* Smoke profile: the small nets only; must stay sub-minute. *)
      List.filter (fun (_, _, net) -> Net.n_sinks net <= 10) nets
    else
      (* Quick profile: skip the largest nets (35-73 sinks); see
         EXPERIMENTS.md for their full-run rows. *)
      List.filter (fun (_, _, net) -> Net.n_sinks net <= 24) nets
  in
  let header =
    [ "circuit"; "net"; "sinks";
      "I:area"; "I:delay"; "I:rt(s)";
      "II:a/I"; "II:d/I"; "II:rt/I";
      "III:a/I"; "III:d/I"; "III:rt/I"; "loops" ]
  in
  let cfg3 net =
    if opts.full && Net.n_sinks net <= 16 then Merlin_core.Config.paper_table1
    else if opts.full then Merlin_core.Config.scaled (Net.n_sinks net)
    else begin
      (* Quick/smoke profiles: tight knobs so the whole table fits a
         coffee break (or a CI smoke slot); --full restores the scaled
         presets. *)
      let base = Merlin_core.Config.scaled (Net.n_sinks net) in
      let iters = if opts.smoke then 1 else 2 in
      let cand = if opts.smoke then 8 else 12 in
      { base with
        Merlin_core.Config.max_iters = iters;
        candidate_limit = min cand base.Merlin_core.Config.candidate_limit;
        max_curve = min 5 base.Merlin_core.Config.max_curve;
        quant_req = Float.max 20.0 base.Merlin_core.Config.quant_req;
        quant_load = Float.max 15.0 base.Merlin_core.Config.quant_load;
        quant_area = Float.max 10.0 base.Merlin_core.Config.quant_area }
    end
  in
  let row (circuit, name, net) =
    progress "[table1] %s %s (n=%d)..." circuit name (Net.n_sinks net);
    let run algo = Flows.run { Flows.tech; buffers; algo } net in
    let m1 = run (Flows.Lttree_ptree { max_fanout = 10 }) in
    let m2 = run (Flows.Ptree_vg { refine_seg = None }) in
    let m3 =
      run
        (Flows.Merlin
           { cfg = Some (cfg3 net);
             objective = Merlin_core.Objective.Best_req })
    in
    (circuit, name, Net.n_sinks net, m1, m2, m3)
  in
  let rows, wall_s = Clock.timed (fun () -> pmap pool row nets) in
  progress "[table1] wall %.2fs (jobs=%d)" wall_s opts.jobs;
  (* Ratios are derived after the parallel map, in row order, so the
     averages are bit-identical for every -j. *)
  let ratios2 =
    List.map
      (fun (_, _, _, m1, m2, _) ->
         ( ratio m2.Flows.area m1.Flows.area,
           ratio m2.Flows.delay m1.Flows.delay,
           ratio m2.Flows.runtime m1.Flows.runtime ))
      rows
  and ratios3 =
    List.map
      (fun (_, _, _, m1, _, m3) ->
         ( ratio m3.Flows.area m1.Flows.area,
           ratio m3.Flows.delay m1.Flows.delay,
           ratio m3.Flows.runtime m1.Flows.runtime ))
      rows
  in
  let cells =
    List.map2
      (fun (circuit, name, sinks, m1, _, m3) ((a2, d2, t2), (a3, d3, t3)) ->
         [ S circuit; S name; I sinks;
           F m1.Flows.area; F m1.Flows.delay; F m1.Flows.runtime;
           R a2; R d2; R t2; R a3; R d3; R t3; I m3.Flows.loops ])
      rows
      (List.combine ratios2 ratios3)
  in
  let avg sel rs = mean (List.map sel rs) in
  let avg_row =
    [ S "Average"; S ""; S ""; S ""; S ""; S "";
      R (avg (fun (a, _, _) -> a) ratios2);
      R (avg (fun (_, d, _) -> d) ratios2);
      R (avg (fun (_, _, t) -> t) ratios2);
      R (avg (fun (a, _, _) -> a) ratios3);
      R (avg (fun (_, d, _) -> d) ratios3);
      R (avg (fun (_, _, t) -> t) ratios3); S "" ]
  in
  print
    ~title:
      "Table 1: per-net buffer area, delay and runtime (Flow I absolute; \
       Flows II/III as ratios over Flow I)"
    ~header (cells @ [ avg_row ]);
  Printf.printf
    "Paper averages for reference: II = 0.71/0.81/1.95, III = 0.88/0.46/13.49\n%!";
  let json_rows =
    List.map
      (fun (circuit, name, sinks, m1, m2, m3) ->
         Json.Obj
           [ ("circuit", js circuit); ("net", js name); ("sinks", ji sinks);
             ("area1", jf m1.Flows.area); ("delay1", jf m1.Flows.delay);
             ("runtime1", jf m1.Flows.runtime);
             ("area2", jf m2.Flows.area); ("delay2", jf m2.Flows.delay);
             ("runtime2", jf m2.Flows.runtime);
             ("area3", jf m3.Flows.area); ("delay3", jf m3.Flows.delay);
             ("runtime3", jf m3.Flows.runtime); ("loops3", ji m3.Flows.loops) ])
      rows
  in
  write_json ~opts ~table:"table1" ~wall_s json_rows

(* ------------------------------------------------------------------ *)
(* Table 2                                                             *)
(* ------------------------------------------------------------------ *)

let table2 ~opts pool () =
  let scale_down = if opts.full then 60 else if opts.smoke then 300 else 200 in
  let circuits =
    List.map (fun (name, _, _, _) -> name) Merlin_circuit.Circuit_gen.table2_specs
  in
  let circuits =
    if opts.full then circuits
    else if opts.smoke then [ "B9" ]
    else (* Quick profile: a representative subset. *)
      [ "C432"; "B9"; "Duke2" ]
  in
  let header =
    [ "circuit"; "gates";
      "I:area"; "I:delay"; "I:rt(s)";
      "II:a/I"; "II:d/I"; "II:rt/I";
      "III:a/I"; "III:d/I"; "III:rt/I" ]
  in
  let row name =
    progress "[table2] %s..." name;
    let netlist =
      Merlin_circuit.Placement.place
        (Merlin_circuit.Circuit_gen.generate ~scale_down ~name ())
    in
    (* Each circuit stays on the sequential per-net schedule (jobs
       unset): row results are identical to a -j 1 run, and -j
       parallelism comes from running circuits concurrently. *)
    let r1 = FR.run ~tech ~buffers ~flow:FR.Flow1 netlist in
    let r2 = FR.run ~tech ~buffers ~flow:FR.Flow2 netlist in
    let r3 = FR.run ~tech ~buffers ~flow:FR.Flow3 netlist in
    (name, Array.length netlist.Merlin_circuit.Netlist.gates, r1, r2, r3)
  in
  let rows, wall_s = Clock.timed (fun () -> pmap pool row circuits) in
  progress "[table2] wall %.2fs (jobs=%d)" wall_s opts.jobs;
  let ratios2 =
    List.map
      (fun (_, _, r1, r2, _) ->
         ( ratio r2.FR.area r1.FR.area,
           ratio r2.FR.delay r1.FR.delay,
           ratio r2.FR.runtime r1.FR.runtime ))
      rows
  and ratios3 =
    List.map
      (fun (_, _, r1, _, r3) ->
         ( ratio r3.FR.area r1.FR.area,
           ratio r3.FR.delay r1.FR.delay,
           ratio r3.FR.runtime r1.FR.runtime ))
      rows
  in
  let cells =
    List.map2
      (fun (name, gates, r1, _, _) ((a2, d2, t2), (a3, d3, t3)) ->
         [ S name; I gates;
           F r1.FR.area; F r1.FR.delay; F r1.FR.runtime;
           R a2; R d2; R t2; R a3; R d3; R t3 ])
      rows
      (List.combine ratios2 ratios3)
  in
  let avg sel rs = mean (List.map sel rs) in
  let avg_row =
    [ S "Average"; S ""; S ""; S ""; S "";
      R (avg (fun (a, _, _) -> a) ratios2);
      R (avg (fun (_, d, _) -> d) ratios2);
      R (avg (fun (_, _, t) -> t) ratios2);
      R (avg (fun (a, _, _) -> a) ratios3);
      R (avg (fun (_, d, _) -> d) ratios3);
      R (avg (fun (_, _, t) -> t) ratios3) ]
  in
  print
    ~title:
      "Table 2: post-layout circuit area, critical delay and total runtime \
       (Flow I absolute; Flows II/III as ratios over Flow I)"
    ~header (cells @ [ avg_row ]);
  Printf.printf
    "Paper averages for reference: II = 1.02/1.05/0.91, III = 1.07/0.85/1.85\n%!";
  let json_rows =
    List.map
      (fun (name, gates, r1, r2, r3) ->
         Json.Obj
           [ ("circuit", js name); ("gates", ji gates);
             ("area1", jf r1.FR.area); ("delay1", jf r1.FR.delay);
             ("runtime1", jf r1.FR.runtime);
             ("area2", jf r2.FR.area); ("delay2", jf r2.FR.delay);
             ("runtime2", jf r2.FR.runtime);
             ("area3", jf r3.FR.area); ("delay3", jf r3.FR.delay);
             ("runtime3", jf r3.FR.runtime);
             ("nets3", ji r3.FR.nets_optimized) ])
      rows
  in
  write_json ~opts ~table:"table2" ~wall_s json_rows

(* ------------------------------------------------------------------ *)
(* Flow IV: hierarchical routing on large nets                          *)
(* ------------------------------------------------------------------ *)

let hier_table ~opts pool () =
  let hier_algo =
    match Flows.default_algo "hier" with
    | Some algo -> algo
    | None -> assert false
  in
  (* The flat reference runs MERLIN under the same tight knobs the hier
     flow uses per cluster, so the comparison rows isolate what the
     decomposition itself costs/buys — not a config difference. *)
  let flat_algo =
    Flows.Merlin
      { cfg = Some Flows.hier_merlin_cfg;
        objective = Merlin_core.Objective.Best_req }
  in
  let run ?pool algo net = Flows.run ?pool { Flows.tech; buffers; algo } net in

  (* Part 1: hier vs flat on nets where flat is still feasible. *)
  let cmp_sizes = if opts.smoke then [ 12 ] else [ 12; 16; 20 ] in
  let cmp_row n =
    progress "[hier] flat-vs-hier n=%d..." n;
    let net =
      Net_gen.large_net ~seed:42 ~name:(Printf.sprintf "cmp%d" n)
        ~shape:Net_gen.Clustered ~n tech
    in
    let flat = run flat_algo net in
    let h = run hier_algo net in
    (n, flat, h)
  in
  (* Part 2: hier alone where the flat DP flows are infeasible. *)
  let shapes =
    if opts.smoke then [ Net_gen.Clustered ]
    else [ Net_gen.Clock_grid; Net_gen.High_fanout; Net_gen.Clustered ]
  in
  let sizes =
    if opts.smoke then [ 60 ]
    else if opts.full then [ 100; 300; 1000; 2000 ]
    else [ 100; 300; 1000 ]
  in
  let scale_row (shape, n) =
    progress "[hier] %s n=%d..." (Net_gen.shape_name shape) n;
    let net =
      Net_gen.large_net ~seed:42
        ~name:(Printf.sprintf "%s%d" (Net_gen.shape_name shape) n)
        ~shape ~n tech
    in
    (* Sequential per row: rows are farmed across the pool instead
       (nested pool use would deadlock-free help, but row-level
       parallelism keeps the per-row runtime column honest). *)
    (shape, n, run hier_algo net)
  in
  let scale_inputs = List.concat_map (fun s -> List.map (fun n -> (s, n)) sizes) shapes in
  let (cmp_rows, scale_rows), wall_s =
    Clock.timed (fun () ->
        (pmap pool cmp_row cmp_sizes, pmap pool scale_row scale_inputs))
  in
  progress "[hier] wall %.2fs (jobs=%d)" wall_s opts.jobs;
  let cmp_cells =
    List.map
      (fun (n, flat, h) ->
         [ I n;
           F flat.Flows.area; F flat.Flows.delay; F flat.Flows.runtime;
           R (ratio h.Flows.area flat.Flows.area);
           R (ratio h.Flows.delay flat.Flows.delay);
           R (ratio h.Flows.runtime flat.Flows.runtime);
           I h.Flows.clusters ])
      cmp_rows
  in
  print
    ~title:
      "Flow IV vs flat MERLIN, same per-cluster knobs (flat absolute; \
       hier as ratios over flat)"
    ~header:
      [ "sinks"; "flat:area"; "flat:delay"; "flat:rt(s)";
        "IV:a/flat"; "IV:d/flat"; "IV:rt/flat"; "clusters" ]
    cmp_cells;
  let scale_cells =
    List.map
      (fun (shape, n, h) ->
         [ S (Net_gen.shape_name shape); I n; I h.Flows.clusters;
           F h.Flows.runtime; I h.Flows.wirelength; F h.Flows.delay;
           F h.Flows.area; I h.Flows.n_buffers ])
      scale_rows
  in
  print
    ~title:
      "Flow IV scaling: two-level hierarchical routing on generated \
       large nets (flat *PTREE is infeasible at these sizes)"
    ~header:
      [ "shape"; "sinks"; "clusters"; "rt(s)"; "wirelen"; "delay";
        "area"; "buffers" ]
    scale_cells;
  let json_rows =
    List.map
      (fun (n, flat, h) ->
         Json.Obj
           [ ("kind", js "cmp"); ("sinks", ji n);
             ("flat_area", jf flat.Flows.area);
             ("flat_delay", jf flat.Flows.delay);
             ("flat_runtime", jf flat.Flows.runtime);
             ("area", jf h.Flows.area); ("delay", jf h.Flows.delay);
             ("runtime", jf h.Flows.runtime);
             ("clusters", ji h.Flows.clusters) ])
      cmp_rows
    @ List.map
        (fun (shape, n, h) ->
           Json.Obj
             [ ("kind", js "scale");
               ("shape", js (Net_gen.shape_name shape)); ("sinks", ji n);
               ("clusters", ji h.Flows.clusters);
               ("runtime", jf h.Flows.runtime);
               ("wirelength", ji h.Flows.wirelength);
               ("delay", jf h.Flows.delay); ("area", jf h.Flows.area);
               ("n_buffers", ji h.Flows.n_buffers) ])
        scale_rows
  in
  write_json ~opts ~table:"hier" ~wall_s json_rows

(* ------------------------------------------------------------------ *)
(* Curve-kernel workload: bytes moved and frontier width               *)
(* ------------------------------------------------------------------ *)

(* Committed allocation budget for the workload below: bytes allocated per
   join build (Star_ptree.allocated_bytes delta around the join kernel
   entry point).  The rows measured 15.3K at n=10 and 13.8K at n=12 with
   the arena-reused, tuple-free kernel (EXPERIMENTS.md "Bytes moved"), and
   read 16.8K and 15.8K once the cell memo left only the wider joins and
   every row started from a collected heap.  Since the builder caps each
   batch at max_curve before materialising, so only kept points get a
   Solution.t, a payload and a tree, the n=10 row reads 8.07K
   (EXPERIMENTS.md "Cap inside the build"), and 4.47K once the exact
   pre-filters stopped pushing join pairs and buffer trials the build would
   drop (EXPERIMENTS.md "Exact candidate pre-filters").  Those figures were
   Gc.allocated_bytes deltas, which on OCaml 5.1 move with the minor heap's
   fill; counted with Star_ptree.allocated_bytes, which does not, the same
   code reads 4.65K, and 2.83K once the kernels pushed int codes instead of
   payload tuples and built trees only for kept points (EXPERIMENTS.md
   "Index-named candidates"), and 2.12K once curves stored their points
   as float columns instead of boxed Solution.t records and the window
   reading stopped allocating (EXPERIMENTS.md "Columnar curves").  The
   --smoke run fails when the measured value exceeds this by more than
   25%, so an accidental return to
   per-build scratch, per-candidate boxing, boxed payloads or materialising
   points the cap drops cannot land silently.  Recalibrate (with the
   measured value from a quiet machine, recorded in EXPERIMENTS.md) when
   the kernel deliberately changes. *)
let alloc_budget_bytes_per_join = 2117.0

(* Committed allocation budget for the buffer closures of the same rows:
   bytes allocated inside Star_ptree's closure windows per computed
   cell.  Closures once cost more bytes than joins on the larger routes
   with no budget of their own: the n=10 row measured 40.9K per cell
   before curves became columns and the closure's trial costs stopped
   boxing the load they read and the delay they computed, and 14.3K
   after (EXPERIMENTS.md "Columnar curves").  The --smoke run fails
   above budget x1.25, so a closure that boxes per trial or materialises
   dropped points again cannot land silently. *)
let alloc_budget_bytes_close_per_cell = 14321.0

(* Committed work budget for the same rows: *PTREE cells computed per
   merge, i.e. per *PTREE run.  Cells memoised by a construction's context
   are not computed again, so this is the memo's footprint: the row
   measured 1.44 at n=10 with the memo and 11.07 without it
   (EXPERIMENTS.md "Cell memo").  The --smoke run fails above budget
   x1.25, so losing the memo cannot land silently. *)
let cells_budget_per_merge = 1.45

(* Committed allocation budget for Flow I's logic phase: bytes
   [Lttree.best] allocates, summed over the smoke Table 1 nets (n <= 10)
   at Flow I's max_fanout 10.  The answer-bounded DP measured 13.12 MB
   here, against about 230 MB for the unbounded DP it replaced
   (EXPERIMENTS.md "LTTREE bound"), and 2.74 MB once [Delay_model.delay]
   stopped allocating a pair per call.  Those were Gc.allocated_bytes
   deltas from a collected heap, which miss what sits in the minor heap
   when the window closes (with a 32M-word minor heap the same calls
   read 0.83 MB); Star_ptree.allocated_bytes counts every word whatever
   the heap holds, and reads 5.87 MB for the same code.  The --smoke
   run fails above budget x1.25, so a return to building curves nobody
   reads cannot land silently. *)
let lttree_budget_bytes = 5.87e6

let lttree_smoke_bytes () =
  Net_gen.table1_nets tech
  |> List.filter (fun (_, _, net) -> Net.n_sinks net <= 10)
  |> List.fold_left
       (fun acc (_, _, net) ->
          let before = Merlin_core.Star_ptree.allocated_bytes () in
          ignore
            (Merlin_lttree.Lttree.best ~buffers ~max_fanout:10
               ~driver:net.Net.driver (Array.to_list net.Net.sinks));
          acc +. (Merlin_core.Star_ptree.allocated_bytes () -. before))
       0.0

let per j v = if j = 0 then 0.0 else float_of_int v /. float_of_int j

(* One row of the curve workload: the full MERLIN flow (Flow III) on a
   seeded net under the scaled config, the setting the golden route
   pins.  The row starts from a collected heap, so its bytes columns
   read the same whichever rows ran before it. *)
let curve_row ~label ~n () =
  progress "[curve] %s (n=%d)..." label n;
  let net = Net_gen.random_net ~seed:42 ~name:(Printf.sprintf "curve%d" n) ~n tech in
  let cfg =
    { (Merlin_core.Config.scaled n) with Merlin_core.Config.max_iters = 2 }
  in
  Gc.full_major ();
  let before = Kernel.counts () in
  let m =
    Flows.run
      { Flows.tech; buffers;
        algo =
          Flows.Merlin
            { cfg = Some cfg; objective = Merlin_core.Objective.Best_req } }
      net
  in
  let d = Kernel.diff before (Kernel.counts ()) in
  (label, n, m, d)

let curve_table ~opts () =
  let rows_spec =
    if opts.smoke then [ ("exact-n10", 10) ]
    else [ ("exact-n10", 10); ("exact-n12", 12) ]
  in
  let header =
    [ "row"; "req (ps)"; "area"; "rt(s)";
      "joins"; "adds/join"; "filt/join"; "B/join"; "close B/cell";
      "front/join"; "cells/merge" ]
  in
  let (rows, lttree_bytes), wall_s =
    Clock.timed (fun () ->
        (* Sequential on purpose: allocation counter deltas are
           per-domain, and one domain keeps every row's bytes columns
           attributable to that row alone. *)
        let rows =
          List.map (fun (label, n) -> curve_row ~label ~n ()) rows_spec
        in
        (rows, lttree_smoke_bytes ()))
  in
  progress "[curve] LTTREE on the smoke Table 1 nets: %.0f bytes" lttree_bytes;
  progress "[curve] wall %.2fs" wall_s;
  let cells =
    List.map
      (fun (label, _n, m, (d : Kernel.counts)) ->
         [ S label; F m.Flows.root_req; F m.Flows.area;
           F m.Flows.runtime; I d.joins;
           F (per d.joins d.join_adds);
           F (per d.joins d.join_filtered);
           F (per d.joins d.bytes_join);
           F (per d.cells d.bytes_close);
           F (per d.joins d.join_survivors);
           F (per d.runs d.cells) ])
      rows
  in
  print
    ~title:
      "Curve kernel: bytes allocated and frontier width per join build"
    ~header cells;
  let json_rows =
    List.map
      (fun (label, n, m, (d : Kernel.counts)) ->
         Json.Obj
           [ ("row", js label); ("sinks", ji n); ("req", jf m.Flows.root_req);
             ("area", jf m.Flows.area); ("runtime", jf m.Flows.runtime);
             ("joins", ji d.joins); ("join_adds", ji d.join_adds);
             ("join_filtered", ji d.join_filtered);
             ("close_adds", ji d.close_adds);
             ("close_filtered", ji d.close_filtered);
             ("join_survivors", ji d.join_survivors);
             ("bytes_join", ji d.bytes_join);
             ("bytes_close", ji d.bytes_close);
             ("bytes_pull", ji d.bytes_pull);
             ("bytes_base", ji d.bytes_base);
             ("bytes_per_join", jf (per d.joins d.bytes_join));
             ("bytes_close_per_cell", jf (per d.cells d.bytes_close));
             ("frontier_per_join", jf (per d.joins d.join_survivors));
             ("merges", ji d.runs); ("cells", ji d.cells);
             ("cells_per_merge", jf (per d.runs d.cells)) ])
      rows
  in
  write_json ~opts ~table:"curve" ~wall_s
    (json_rows
     @ [ Json.Obj [ ("row", js "lttree"); ("lttree_bytes", jf lttree_bytes) ];
         Json.Obj [ ("row", js "budget");
                    ("bytes_per_join_budget", jf alloc_budget_bytes_per_join);
                    ("bytes_close_per_cell_budget",
                     jf alloc_budget_bytes_close_per_cell);
                    ("cells_per_merge_budget", jf cells_budget_per_merge);
                    ("lttree_budget_bytes", jf lttree_budget_bytes) ] ]);
  (* The emitter must keep producing documents the repo's own JSON layer
     parses: read the file straight back.  Any Parse_error here fails the
     @bench-smoke alias. *)
  (match opts.json with
   | None -> ()
   | Some file ->
     let ic = open_in_bin file in
     let len = in_channel_length ic in
     let raw = really_input_string ic len in
     close_in ic;
     let doc = Json.of_string raw in
     (match Json.member "rows" doc with
      | Some (Json.List (_ :: _)) -> ()
      | Some _ | None ->
        failwith "Bench.curve_table: emitted JSON lost its rows"));
  (* Allocation- and work-regression guards: LTTREE's bytes and every
     row must stay within 25% of the committed budgets. *)
  if opts.smoke && lttree_bytes > lttree_budget_bytes *. 1.25 then
    failwith
      (Printf.sprintf
         "Bench.curve_table: Lttree.best allocates %.0f bytes on the smoke \
          Table 1 nets, over budget %.0f x1.25 — the LTTREE bound regressed"
         lttree_bytes lttree_budget_bytes);
  if opts.smoke then
    List.iter
      (fun (label, _, _, (d : Kernel.counts)) ->
         let bpj = per d.joins d.bytes_join in
         if bpj > alloc_budget_bytes_per_join *. 1.25 then
           failwith
             (Printf.sprintf
                "Bench.curve_table: %s allocates %.0f bytes/join, over \
                 budget %.0f x1.25 — the zero-allocation kernel regressed"
                label bpj alloc_budget_bytes_per_join);
         let bpc = per d.cells d.bytes_close in
         if bpc > alloc_budget_bytes_close_per_cell *. 1.25 then
           failwith
             (Printf.sprintf
                "Bench.curve_table: %s allocates %.0f closure bytes/cell, \
                 over budget %.0f x1.25 — the buffer closure regressed"
                label bpc alloc_budget_bytes_close_per_cell);
         let cpm = per d.runs d.cells in
         if cpm > cells_budget_per_merge *. 1.25 then
           failwith
             (Printf.sprintf
                "Bench.curve_table: %s computes %.2f cells/merge, over \
                 budget %.2f x1.25 — the *PTREE cell memo regressed"
                label cpm cells_budget_per_merge))
      rows

(* ------------------------------------------------------------------ *)
(* Serving throughput: cold vs warm vs restart vs ECO                  *)
(* ------------------------------------------------------------------ *)

module Serve = Merlin_serve

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let serve_stat path stats =
  let rec go j = function
    | [] -> (
      match Json.to_num j with
      | Some f -> int_of_float f
      | None ->
        failwith
          ("Bench.serve_stat: not a number: " ^ String.concat "." path))
    | k :: rest -> (
      match Json.member k j with
      | Some v -> go v rest
      | None -> failwith ("Bench.serve_stat: missing " ^ String.concat "." path))
  in
  go stats path

let serve_stats client =
  match
    Serve.Client.call client
      (Serve.Wire.Admin { job = "stats"; op = Serve.Wire.Stats })
  with
  | Ok (Serve.Wire.Stats_reply { stats; _ }) -> stats
  | Ok _ -> failwith "Bench.serve_stats: unexpected reply to a stats request"
  | Error msg -> failwith ("Bench.serve_stats: " ^ msg)

(* Whole-netlist serving over the v2 wire protocol: extract every
   optimizable net of a generated circuit, then measure four batch
   submissions against a daemon backed by the persistent store —

     cold     empty caches, every net computed on the pool;
     warm     same daemon again, answered by the memory LRU;
     restart  a fresh daemon over the same store directory, answered by
              the persistent tier without a single pool task;
     eco      ~25% of the nets perturbed, submitted with the original
              fingerprint manifest — only the changed nets re-route.

   The --smoke profile asserts the cache story instead of just printing
   it: warm throughput must be at least cold's, the restarted daemon
   must serve 100% hits with zero pool submissions, and ECO must route
   exactly the changed nets. *)
let serve_table ~opts () =
  let scale_down = if opts.full then 60 else if opts.smoke then 300 else 200 in
  let netlist =
    Merlin_circuit.Placement.place
      (Merlin_circuit.Circuit_gen.generate ~scale_down ~name:"B9" ())
  in
  let nets = FR.nets ~tech netlist in
  let n = List.length nets in
  if n = 0 then failwith "Bench.serve_table: circuit yields no optimizable nets";
  progress "[serve] B9 yields %d optimizable nets (jobs=%d)" n opts.jobs;
  let spec =
    { Flows.tech; buffers;
      algo =
        Flows.Merlin
          { cfg =
              Some
                { Merlin_core.Config.default with
                  Merlin_core.Config.candidate_limit = 8;
                  max_curve = 5;
                  buffer_trials = 4;
                  max_iters = 1 };
            objective = Merlin_core.Objective.Best_req } }
  in
  let store_dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "merlin-bench-store-%d" (Unix.getpid ()))
  in
  let socket tag =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "merlin-bench-%s-%d.sock" tag (Unix.getpid ()))
  in
  let start tag =
    Serve.Server.start
      { (Serve.Server.default_config ~socket_path:(socket tag)) with
        Serve.Server.domains = Some opts.jobs;
        cache_capacity = max 256 n;
        store_dir = Some store_dir }
  in
  let run_row client ~row ?manifest nets =
    progress "[serve] %s..." row;
    match
      Serve.Client.run_batch client
        { Serve.Wire.job = row; spec; nets; deadline_s = None;
          want_tree = false; manifest }
        ~on_progress:(fun _ -> ())
    with
    | Error msg -> failwith ("Bench.serve_table: " ^ row ^ ": " ^ msg)
    | Ok s -> (row, s)
  in
  let bump_req (net : Net.t) =
    Net.make ~name:net.Net.name ~source:net.Net.source ~driver:net.Net.driver
      (Array.to_list
         (Array.map
            (fun (s : Sink.t) ->
               Sink.make ~id:s.Sink.id ~pt:s.Sink.pt ~cap:s.Sink.cap
                 ~req:(s.Sink.req +. 50.0))
            net.Net.sinks))
  in
  let eco_nets =
    List.mapi
      (fun i (name, net) ->
         if i mod 4 = 0 then (name, bump_req net) else (name, net))
      nets
  in
  let changed = (n + 3) / 4 in
  let manifest =
    List.map (fun (name, net) -> (name, Net_io.fingerprint net)) nets
  in
  (* A row that raises must still close its client, stop its daemon and
     remove the store directory. *)
  let with_daemon tag f =
    let server = start tag in
    Fun.protect
      ~finally:(fun () -> Serve.Server.stop server)
      (fun () ->
         let client = Serve.Client.connect_unix (socket tag) in
         Fun.protect
           ~finally:(fun () -> Serve.Client.close client)
           (fun () -> f client))
  in
  let (rows, restart_submitted), wall_s =
    Fun.protect
      ~finally:(fun () -> rm_rf store_dir)
      (fun () ->
         Clock.timed (fun () ->
             let cold, warm, eco =
               with_daemon "a" (fun c1 ->
                   let cold = run_row c1 ~row:"cold" nets in
                   let warm = run_row c1 ~row:"warm" nets in
                   let eco = run_row c1 ~row:"eco" ~manifest eco_nets in
                   (cold, warm, eco))
             in
             let restart, restart_submitted =
               with_daemon "b" (fun c2 ->
                   let restart = run_row c2 ~row:"restart" nets in
                   ( restart,
                     serve_stat [ "pool"; "submitted" ] (serve_stats c2) ))
             in
             ([ cold; warm; restart; eco ], restart_submitted)))
  in
  progress "[serve] wall %.2fs (jobs=%d)" wall_s opts.jobs;
  let throughput (s : Serve.Wire.summary) =
    if s.Serve.Wire.wall_s > 0.0 then
      float_of_int s.Serve.Wire.total /. s.Serve.Wire.wall_s
    else 0.0
  in
  let cells =
    List.map
      (fun (row, (s : Serve.Wire.summary)) ->
         [ S row; I s.Serve.Wire.total; I s.Serve.Wire.routed;
           I s.Serve.Wire.hits; I s.Serve.Wire.unchanged;
           I s.Serve.Wire.failed; F s.Serve.Wire.wall_s; F (throughput s) ])
      rows
  in
  print
    ~title:
      "Batch serving: whole-netlist throughput over the v2 wire protocol \
       (cold pool run, warm LRU, daemon restart over the persistent \
       store, ECO re-route)"
    ~header:
      [ "row"; "nets"; "routed"; "hits"; "unchanged"; "failed"; "wall(s)";
        "nets/s" ]
    cells;
  let json_rows =
    List.map
      (fun (row, (s : Serve.Wire.summary)) ->
         Json.Obj
           [ ("row", js row); ("nets", ji s.Serve.Wire.total);
             ("routed", ji s.Serve.Wire.routed); ("hits", ji s.Serve.Wire.hits);
             ("unchanged", ji s.Serve.Wire.unchanged);
             ("failed", ji s.Serve.Wire.failed);
             ("cancelled", ji s.Serve.Wire.cancelled);
             ("wall_s", jf s.Serve.Wire.wall_s);
             ("nets_per_s", jf (throughput s)) ])
      rows
    @ [ Json.Obj
          [ ("row", js "restart-pool");
            ("pool_submitted", ji restart_submitted);
            ("changed", ji changed) ] ]
  in
  write_json ~opts ~table:"serve" ~wall_s json_rows;
  (* Parse the emitted document straight back; @bench-smoke fails on a
     Parse_error or a lost rows array, same as the curve table. *)
  (match opts.json with
   | None -> ()
   | Some file ->
     let ic = open_in_bin file in
     let len = in_channel_length ic in
     let raw = really_input_string ic len in
     close_in ic;
     let doc = Json.of_string raw in
     (match Json.member "rows" doc with
      | Some (Json.List (_ :: _)) -> ()
      | Some _ | None ->
        failwith "Bench.serve_table: emitted JSON lost its rows"));
  if opts.smoke then begin
    let find row =
      match List.assoc_opt row rows with
      | Some s -> s
      | None -> failwith ("Bench.serve_table: missing row " ^ row)
    in
    let cold = find "cold" and warm = find "warm" in
    let restart = find "restart" and eco = find "eco" in
    if cold.Serve.Wire.routed <> n then
      failwith "Bench.serve_table: cold run did not route every net";
    if warm.Serve.Wire.hits <> n || throughput warm < throughput cold then
      failwith
        "Bench.serve_table: warm run slower than cold — the memory cache \
         regressed";
    if restart.Serve.Wire.hits <> n || restart_submitted <> 0 then
      failwith
        "Bench.serve_table: restarted daemon touched the pool — the \
         persistent store regressed";
    if eco.Serve.Wire.routed <> changed
       || eco.Serve.Wire.unchanged <> n - changed
    then
      failwith
        "Bench.serve_table: ECO did not route exactly the changed nets"
  end

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

let ablation_neighborhood pool () =
  progress "[ablations] A: neighborhood sizes";
  (* Ablation A: Theorem 1 -- neighborhood size is a Fibonacci number. *)
  let header = [ "n"; "enumerated"; "closed form F(n+1)"; "paper Binet(n+2)" ] in
  let rows =
    pmap pool
      (fun n ->
         let enumerated =
           if n <= 14 then
             I (List.length
                  (Merlin_order.Order.neighborhood (Merlin_order.Order.identity n)))
           else S "-"
         in
         [ I n; enumerated;
           I (Merlin_order.Order.neighborhood_size n);
           F (Merlin_order.Order.theorem1_closed_form n) ])
      [ 1; 2; 3; 4; 5; 6; 8; 10; 12; 16; 20 ]
  in
  print ~title:"Ablation A (Theorem 1): |N(Pi)| vs closed form" ~header rows

let run_merlin_with ?candidates ?init ~cfg net =
  let out, t =
    Clock.timed (fun () ->
        Merlin_core.Merlin.run ?candidates ?init ~cfg ~tech ~buffers net)
  in
  match out with
  | None -> (nan, nan, 0, t)
  | Some out ->
    ( out.Merlin_core.Merlin.best.Merlin_curves.Solution.req,
      out.Merlin_core.Merlin.best.Merlin_curves.Solution.area,
      out.Merlin_core.Merlin.loops,
      t )

let ablation_candidates pool () =
  progress "[ablations] B: candidate sets";
  (* Ablation B: Section III.1's claim that the candidate-set choice does
     not matter much once its size is linear in n. *)
  let net = Net_gen.random_net ~seed:101 ~name:"ablB" ~n:8 tech in
  let cfg = Merlin_core.Config.scaled 8 in
  let pts = Net.terminals net in
  let sets =
    [ ("reduced Hanan (default)", None);
      ("full Hanan (capped 36)",
       Some (Array.of_list (Merlin_geometry.Hanan.reduced pts ~limit:36)));
      ("center of mass",
       Some (Array.of_list (Merlin_geometry.Hanan.center_of_mass_set pts ~limit:24)));
      ("terminals only", Some (Array.of_list pts)) ]
  in
  let header = [ "candidate set"; "k"; "req (ps)"; "buf area"; "time (s)" ] in
  let rows =
    pmap pool
      (fun (name, candidates) ->
         let k =
           match candidates with
           | Some c -> Array.length c
           | None ->
             Array.length (Merlin_core.Bubble_construct.candidate_set cfg net)
         in
         let req, area, _, t = run_merlin_with ?candidates ~cfg net in
         [ S name; I k; F req; F area; F t ])
      sets
  in
  print ~title:"Ablation B: candidate-location set choice (n=8)" ~header rows

let ablation_alpha pool () =
  progress "[ablations] C: alpha sweep";
  (* Ablation C: quality/runtime vs the branching bound alpha. *)
  let net = Net_gen.random_net ~seed:103 ~name:"ablC" ~n:8 tech in
  let header = [ "alpha"; "req (ps)"; "buf area"; "loops"; "time (s)" ] in
  let rows =
    pmap pool
      (fun alpha ->
         let cfg = { (Merlin_core.Config.scaled 8) with Merlin_core.Config.alpha } in
         let req, area, loops, t = run_merlin_with ~cfg net in
         [ I alpha; F req; F area; I loops; F t ])
      [ 2; 4; 6; 10; 15 ]
  in
  print ~title:"Ablation C: branching bound alpha (n=8)" ~header rows

let ablation_initial_order pool () =
  progress "[ablations] D: initial orders";
  (* Ablation D: Section IV's claim that the initial order has a small
     effect on final quality. *)
  let net = Net_gen.random_net ~seed:104 ~name:"ablD" ~n:8 tech in
  let cfg = Merlin_core.Config.scaled 8 in
  let orders =
    [ ("TSP (paper setup)", Merlin_order.Tsp.order net);
      ("required time", Merlin_order.Heuristics.by_required_time net);
      ("x sweep", Merlin_order.Heuristics.by_x_sweep net);
      ("random#1", Merlin_order.Heuristics.random ~seed:1 net);
      ("random#2", Merlin_order.Heuristics.random ~seed:2 net) ]
  in
  let header = [ "initial order"; "req (ps)"; "buf area"; "loops"; "time (s)" ] in
  let rows =
    pmap pool
      (fun (name, init) ->
         let req, area, loops, t = run_merlin_with ~init ~cfg net in
         [ S name; F req; F area; I loops; F t ])
      orders
  in
  print ~title:"Ablation D: initial sink order (n=8)" ~header rows

let ablation_placement pool () =
  progress "[ablations] E: chain placement";
  (* Ablation E: the Flush_ends restriction vs the paper's full chain
     placement. *)
  let header = [ "n"; "placement"; "req (ps)"; "merges"; "time (s)" ] in
  let configs =
    List.concat_map
      (fun n ->
         List.map
           (fun placement -> (n, placement))
           [ ("all positions (paper)", Merlin_core.Config.All_positions);
             ("flush ends (fast)", Merlin_core.Config.Flush_ends) ])
      [ 6; 8 ]
  in
  let rows =
    pmap pool
      (fun (n, (name, placement)) ->
         let net = Net_gen.random_net ~seed:105 ~name:"ablE" ~n tech in
         let order = Merlin_order.Tsp.order net in
         let cfg =
           { (Merlin_core.Config.scaled n) with
             Merlin_core.Config.chain_placement = placement }
         in
         let r, t =
           Clock.timed (fun () ->
               Merlin_core.Bubble_construct.construct ~cfg ~tech ~buffers net
                 order)
         in
         let req =
           match
             Merlin_curves.Curve.best_req r.Merlin_core.Bubble_construct.curve
           with
           | Some s -> s.Merlin_curves.Solution.req
           | None -> nan
         in
         [ I n; S name; F req; I r.Merlin_core.Bubble_construct.merges; F t ])
      configs
  in
  print ~title:"Ablation E: chain placement restriction" ~header rows

let ablation_bubbling pool () =
  progress "[ablations] F: bubbling on/off";
  (* Ablation F: the paper's core contribution.  With bubbling disabled
     the engine is an order-constrained hierarchical construction for the
     single initial order; the outer loop then has no move to make. *)
  let header =
    [ "n"; "seed"; "bubbling"; "req (ps)"; "buf area"; "loops"; "time (s)" ]
  in
  let configs =
    List.concat_map
      (fun (n, seed) ->
         List.map
           (fun toggle -> (n, seed, toggle))
           [ ("on (MERLIN)", true); ("off (fixed order)", false) ])
      [ (8, 42); (8, 77); (10, 7) ]
  in
  let rows =
    pmap pool
      (fun (n, seed, (label, bubbling)) ->
         let net = Net_gen.random_net ~seed ~name:"ablF" ~n tech in
         let cfg =
           { (Merlin_core.Config.scaled n) with Merlin_core.Config.bubbling }
         in
         let req, area, loops, t = run_merlin_with ~cfg net in
         [ I n; I seed; S label; F req; F area; I loops; F t ])
      configs
  in
  print ~title:"Ablation F: local order-perturbation (bubbling)" ~header rows

let ablations ~opts pool () =
  let (), wall_s =
    Clock.timed (fun () ->
        ablation_neighborhood pool ();
        ablation_candidates pool ();
        ablation_alpha pool ();
        ablation_initial_order pool ();
        ablation_placement pool ();
        ablation_bubbling pool ())
  in
  progress "[ablations] wall %.2fs (jobs=%d)" wall_s opts.jobs

(* ------------------------------------------------------------------ *)
(* Bechamel micro benchmarks                                           *)
(* ------------------------------------------------------------------ *)

let speed ~seconds () =
  let open Bechamel in
  let net8 = Net_gen.random_net ~seed:42 ~name:"bench8" ~n:8 tech in
  let net16 = Net_gen.random_net ~seed:43 ~name:"bench16" ~n:16 tech in
  let fast3 =
    { (Merlin_core.Config.scaled 8) with
      Merlin_core.Config.max_iters = 1;
      candidate_limit = 10;
      max_curve = 5 }
  in
  let star net =
    Merlin_rtree.Rtree.node net.Net.source
      (Array.to_list (Array.map Merlin_rtree.Rtree.leaf net.Net.sinks))
  in
  let tests =
    [ Test.make ~name:"tsp-order-n16"
        (Staged.stage (fun () -> ignore (Merlin_order.Tsp.order net16)));
      Test.make ~name:"lttree-n16"
        (Staged.stage (fun () ->
             ignore
               (Merlin_lttree.Lttree.best ~buffers ~max_fanout:10
                  ~driver:net16.Net.driver
                  (Array.to_list net16.Net.sinks))));
      Test.make ~name:"ptree-route-n8"
        (Staged.stage (fun () -> ignore (Merlin_ptree.Ptree.route ~tech net8)));
      Test.make ~name:"van-ginneken-n8"
        (Staged.stage (fun () ->
             ignore
               (Merlin_ginneken.Van_ginneken.insert ~tech ~buffers net8
                  (star net8))));
      Test.make ~name:"merlin-n5-1loop"
        (Staged.stage (fun () ->
             let net = Net_gen.random_net ~seed:5 ~name:"b5" ~n:5 tech in
             ignore (Merlin_core.Merlin.run ~cfg:fast3 ~tech ~buffers net))) ]
  in
  let header = [ "benchmark"; "time/run" ] in
  let rows =
    List.map
      (fun test ->
         let cfg =
           Benchmark.cfg ~limit:2000 ~quota:(Time.second seconds) ()
         in
         let raw = Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] test in
         let ols =
           Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
         in
         let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
         (* Bechamel hands results back in a Hashtbl; fold to pairs and
            sort by benchmark name so the table order is a function of
            the test set, not of bucket layout (rule C9). *)
         Hashtbl.fold
           (fun name result acc ->
              let estimate =
                match Analyze.OLS.estimates result with
                | Some [ e ] -> e
                | Some _ | None -> nan
              in
              let pretty =
                if Float.is_nan estimate then "-"
                else if estimate > 1e9 then Printf.sprintf "%.2f s" (estimate /. 1e9)
                else if estimate > 1e6 then Printf.sprintf "%.2f ms" (estimate /. 1e6)
                else Printf.sprintf "%.1f us" (estimate /. 1e3)
              in
              (name, pretty) :: acc)
           results []
         |> List.sort (fun (a, _) (b, _) -> String.compare a b)
         |> List.map (fun (name, pretty) -> [ S name; S pretty ]))
      tests
    |> List.concat
  in
  print ~title:"Bechamel micro benchmarks (monotonic clock per run)" ~header rows

(* ------------------------------------------------------------------ *)

let subcommands =
  [ "table1"; "table2"; "hier"; "curve"; "serve"; "ablations"; "speed"; "all" ]

let usage =
  "usage: main.exe [SUBCOMMAND] [--full] [--smoke] [--stats] [-j N] \
   [--seconds S] [--json FILE]\n\
   SUBCOMMAND is one of " ^ String.concat ", " subcommands
  ^ "; without one, every table runs.\n"

(* Every argument must be a subcommand, a flag or a flag's value: a
   mistyped subcommand would otherwise run every table, for hours.  The
   first subcommand given wins. *)
let rec parse_args opts what args =
  let refuse fmt =
    Printf.ksprintf
      (fun m -> prerr_string ("bench: " ^ m ^ "\n" ^ usage); exit 2)
      fmt
  in
  match args with
  | [] -> (opts, what)
  | ("--help" | "-h") :: _ -> print_string usage; exit 0
  | "--full" :: r -> parse_args { opts with full = true } what r
  | "--smoke" :: r -> parse_args { opts with smoke = true } what r
  | "--stats" :: r -> parse_args { opts with show_stats = true } what r
  | "--seconds" :: v :: r ->
    parse_args { opts with seconds = float_of_string v } what r
  | ("-j" | "--jobs") :: v :: r ->
    parse_args { opts with jobs = max 1 (int_of_string v) } what r
  | "--json" :: v :: r -> parse_args { opts with json = Some v } what r
  | a :: r when List.mem a subcommands ->
    parse_args opts (Some (Option.value what ~default:a)) r
  | [ ("--seconds" | "-j" | "--jobs" | "--json") as k ] ->
    refuse "%s needs a value" k
  | a :: _ -> refuse "unknown argument %S" a

let () =
  let defaults =
    { full = false; smoke = false; jobs = 1; show_stats = false; json = None;
      seconds = 1.0 }
  in
  let args = List.tl (Array.to_list Sys.argv) in
  let opts, what = parse_args defaults None args in
  let { jobs; show_stats; seconds; _ } = opts in
  (* Must happen before any domain exists (it may re-exec the process);
     see Runparam. *)
  if jobs > 1 then Merlin_exec.Runparam.ensure_minor_heap ();
  let pool = if jobs > 1 then Some (Pool.create ~domains:jobs ()) else None in
  (match what with
   | Some "table1" -> table1 ~opts pool ()
   | Some "table2" -> table2 ~opts pool ()
   | Some "hier" -> hier_table ~opts pool ()
   | Some "curve" -> curve_table ~opts ()
   | Some "serve" -> serve_table ~opts ()
   | Some "ablations" -> ablations ~opts pool ()
   | Some "speed" -> speed ~seconds ()
   | Some "all" | None ->
     (* JSON targets one table per file; ignore it for `all`. *)
     let opts = { opts with json = None } in
     table1 ~opts pool ();
     table2 ~opts pool ();
     hier_table ~opts pool ();
     serve_table ~opts ();
     ablations ~opts pool ();
     speed ~seconds ()
   | Some _ -> assert false);
  match pool with
  | None -> ()
  | Some p ->
    if show_stats then Format.eprintf "%a@." Pool.pp_stats (Pool.stats p);
    Pool.shutdown p
