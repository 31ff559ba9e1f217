(* Command-line interface to the buffered routing tree flows.

     merlin-cli gen --sinks 12 --seed 7 -o net.txt
     merlin-cli gen --sinks 12 --nets 20 -o netlist.txt
     merlin-cli route net.txt --flow merlin --alpha 10
     merlin-cli route --random 10 --flow all -j 3 --stats
     merlin-cli route net.txt --objective area:50 --json
     merlin-cli circuit --name B9 --flow all -j 4 --stats
     merlin-cli serve --socket /tmp/merlin.sock -j 4 --store /var/cache/merlin
     merlin-cli submit net.txt --socket /tmp/merlin.sock --deadline 10
     merlin-cli submit --netlist netlist.txt --save-manifest routed.mf
     merlin-cli submit --netlist netlist.txt --eco routed.mf
     merlin-cli submit --admin stats --socket /tmp/merlin.sock

   Helpers return [(_, string) result] and errors surface through
   [Term.term_result'] — Cmdliner owns every exit path, so `--help`,
   usage errors and our own diagnostics all behave consistently (no
   [exit] from inside argument processing). *)

open Cmdliner
open Merlin_tech
open Merlin_net
module Flows = Merlin_flows.Flows
module FR = Merlin_circuit.Flow_runner
module Pool = Merlin_exec.Pool
module Json = Merlin_report.Json
module Metrics = Merlin_report.Metrics
module Serve = Merlin_serve

let tech = Tech.default
let buffers = Buffer_lib.default

let ( let* ) = Result.bind

let parse_shape = function
  | None -> Ok None
  | Some s -> (
    match Net_gen.shape_of_string s with
    | Some shape -> Ok (Some shape)
    | None ->
      Error
        (Printf.sprintf "unknown shape %s (clock-grid|high-fanout|clustered)" s))

let load_net ?shape file random seed =
  match (file, random) with
  | Some path, _ -> (
    match Net_io.load path with
    | net -> Ok net
    | exception Sys_error msg -> Error msg
    | exception Failure msg -> Error msg)
  | None, Some n -> (
    let* shape = parse_shape shape in
    match shape with
    | None -> Ok (Net_gen.random_net ~seed ~name:"random" ~n tech)
    | Some shape ->
      Ok (Net_gen.large_net ~seed ~name:"random" ~shape ~n tech))
  | None, None -> Error "either a net file or --random N is required"

let parse_objective = function
  | None -> Ok Merlin_core.Objective.Best_req
  | Some s -> (
    match String.split_on_char ':' s with
    | [ "best" ] -> Ok Merlin_core.Objective.Best_req
    | [ "area"; v ] -> (
      match float_of_string_opt v with
      | Some v -> Ok (Merlin_core.Objective.Max_req_under_area v)
      | None -> Error (Printf.sprintf "invalid area budget %S" v))
    | [ "req"; v ] -> (
      match float_of_string_opt v with
      | Some v -> Ok (Merlin_core.Objective.Min_area_over_req v)
      | None -> Error (Printf.sprintf "invalid req floor %S" v))
    | _ -> Error "objective must be best, area:<budget> or req:<floor>")

(* The hierarchical flow's clustering knobs, from the CLI options. *)
let make_cluster ~cluster_size ~clusters =
  let d = Merlin_hier.Cluster.default in
  { d with
    Merlin_hier.Cluster.target_size =
      Option.value cluster_size ~default:d.Merlin_hier.Cluster.target_size;
    n_clusters = clusters }

(* The knobs shared by `route` and `submit`: one flow name plus the
   optional alpha/objective/clustering overrides, resolved against the
   net. *)
let make_algo ~flow ~alpha ~objective ?(cluster_size = None) ?(clusters = None)
    net =
  let* objective = parse_objective objective in
  match Flows.default_algo flow with
  | Some (Flows.Merlin _) ->
    let base = Merlin_core.Config.scaled (Net.n_sinks net) in
    let cfg =
      match alpha with
      | None -> base
      | Some alpha -> { base with Merlin_core.Config.alpha }
    in
    Ok (Flows.Merlin { cfg = Some cfg; objective })
  | Some (Flows.Hier _) ->
    Ok
      (Flows.Hier
         { cluster = make_cluster ~cluster_size ~clusters;
           inner = Flows.Merlin { cfg = Some Flows.hier_merlin_cfg; objective }
         })
  | Some algo -> Ok algo
  | None ->
    Error
      (Printf.sprintf "unknown flow %s (merlin|lttree-ptree|ptree-vg|hier)"
         flow)

let run_spec ?pool spec net =
  match Flows.run ?pool spec net with
  | m -> Ok m
  | exception Flows.Infeasible msg -> Error msg

let print_metrics (m : Flows.metrics) =
  Format.printf
    "%-16s area=%.2f delay=%.1fps req=%.1fps buffers=%d wirelength=%d \
     loops=%d runtime=%.2fs@."
    m.Flows.flow m.Flows.area m.Flows.delay m.Flows.root_req m.Flows.n_buffers
    m.Flows.wirelength m.Flows.loops m.Flows.runtime

let emit_metrics ~json ~with_tree m =
  if json then
    print_endline
      (Json.to_string (Metrics.to_json (Flows.wire_metrics ~with_tree m)))
  else print_metrics m

let dump_stats pool =
  Format.eprintf "%a@." Pool.pp_stats (Pool.stats pool)

(* Curve-kernel telemetry (process-lifetime totals): frontier adds, the
   candidates the exact pre-filters drop before pushing, and
   allocation deltas per *PTREE entry point, see Star_ptree.
   Cells memoised within a construction count once. *)
let dump_curve_stats () =
  let g = Atomic.get in
  let open Merlin_core.Star_ptree in
  let joins = g n_joins and runs = g n_runs in
  let per v = if joins = 0 then 0.0 else float_of_int v /. float_of_int joins in
  Format.eprintf
    "curve kernel: merges=%d cells/merge=%.2f joins=%d adds/join=%.1f \
     filtered/join=%.1f close=[adds %d; filtered %d] front/join=%.1f \
     B/join=%.0f bytes=[join %d; close %d; pull %d; base %d]@."
    runs
    (if runs = 0 then 0.0 else float_of_int (g n_cells) /. float_of_int runs)
    joins
    (per (g n_join_adds))
    (per (g n_join_filtered))
    (g n_close_adds) (g n_close_filtered)
    (per (g n_join_survivors))
    (per (g bytes_join))
    (g bytes_join) (g bytes_close) (g bytes_pull) (g bytes_base)

let setup_verbose verbose =
  if verbose then begin
    Logs.set_reporter (Logs_fmt.reporter ());
    Logs.set_level (Some Logs.Debug)
  end

(* ---- route ---- *)

let route file random seed shape flow alpha objective cluster_size clusters
    json show_tree verbose jobs stats =
  (* May re-exec the process; must run before any domain is spawned. *)
  if jobs > 1 then Merlin_exec.Runparam.ensure_minor_heap ();
  setup_verbose verbose;
  let* net = load_net ?shape file random seed in
  if not json then Format.printf "%a@." Net.pp net;
  let cfg =
    let base = Merlin_core.Config.scaled (Net.n_sinks net) in
    match alpha with
    | None -> base
    | Some alpha -> { base with Merlin_core.Config.alpha }
  in
  let* objective = parse_objective objective in
  let run_flow3_verbose () =
    (* Rich human output for the headline flow: evaluation, hierarchy
       and (optionally) the routing tree. *)
    match Merlin_core.Merlin.run ~cfg ~objective ~tech ~buffers net with
    | None -> Error "objective infeasible on the final solution curve"
    | Some out ->
      let ev = Merlin_rtree.Eval.net tech net out.Merlin_core.Merlin.tree in
      Format.printf
        "MERLIN: req=%.1fps delay=%.1fps area=%.2f buffers=%d loops=%d@."
        ev.Merlin_rtree.Eval.root_req ev.Merlin_rtree.Eval.net_delay
        ev.Merlin_rtree.Eval.area
        (Merlin_rtree.Rtree.n_buffers out.Merlin_core.Merlin.tree)
        out.Merlin_core.Merlin.loops;
      Format.printf "hierarchy: %a@." Merlin_core.Catree.pp
        out.Merlin_core.Merlin.hierarchy;
      if show_tree then
        Format.printf "tree:@.%a@." Merlin_rtree.Rtree.pp
          out.Merlin_core.Merlin.tree;
      Ok 0
  in
  let emit = emit_metrics ~json ~with_tree:show_tree in
  let single algo =
    let* m = run_spec { Flows.tech; buffers; algo } net in
    emit m;
    Ok 0
  in
  let res =
    match flow with
  | "merlin" when not json -> run_flow3_verbose ()
  | "merlin" -> single (Flows.Merlin { cfg = Some cfg; objective })
  | "lttree-ptree" -> single (Flows.Lttree_ptree { max_fanout = 10 })
  | "ptree-vg" -> single (Flows.Ptree_vg { refine_seg = None })
  | "hier" ->
    (* Two-level decomposition; with -j the clusters route in parallel
       on the pool (bit-identical to sequential). *)
    let algo =
      Flows.Hier
        { cluster = make_cluster ~cluster_size ~clusters;
          inner = Flows.Merlin { cfg = Some Flows.hier_merlin_cfg; objective } }
    in
    let spec = { Flows.tech; buffers; algo } in
    (* Decomposition telemetry goes to stderr with the pool stats so
       --json stdout stays a clean metrics document. *)
    let dump_hier (m : Flows.metrics) =
      if stats then
        Format.eprintf "hier: levels=%d clusters=%d sizes=[%s]@." m.Flows.levels
          m.Flows.clusters
          (String.concat ";" (List.map string_of_int m.Flows.cluster_sizes))
    in
    if jobs > 1 then
      Pool.with_pool ~domains:jobs (fun pool ->
          let* m = run_spec ~pool spec net in
          emit m;
          dump_hier m;
          if stats then dump_stats pool;
          Ok 0)
    else
      let* m = run_spec spec net in
      emit m;
      dump_hier m;
      Ok 0
  | "all" when jobs > 1 ->
    (* The three flows are independent; run them as pool tasks.  The
       deterministic map keeps the output order I, II, III. *)
    let specs =
      [ Flows.Lttree_ptree { max_fanout = 10 };
        Flows.Ptree_vg { refine_seg = None };
        Flows.Merlin { cfg = Some cfg; objective = Merlin_core.Objective.Best_req } ]
    in
    Pool.with_pool ~domains:jobs (fun pool ->
        let ms =
          Pool.map ~chunk:1 pool
            (* Flows.run's only nondeterminism is its runtime telemetry
               (Clock.timed); trees and metrics are replay-identical. *)
            (fun algo -> Flows.run { Flows.tech; buffers; algo } net) (* check: nondet-ok *)
            specs
        in
        List.iter emit ms;
        if stats then dump_stats pool;
        Ok 0)
  | "all" ->
    List.iter emit (Flows.all ~tech ~buffers ~cfg3:cfg net);
    Ok 0
    | other ->
      Error
        (Printf.sprintf
           "unknown flow %s (merlin|lttree-ptree|ptree-vg|hier|all)" other)
  in
  if stats then dump_curve_stats ();
  res

(* ---- circuit ---- *)

let circuit name scale_down flow min_sinks jobs net_timeout stats =
  if jobs > 1 then Merlin_exec.Runparam.ensure_minor_heap ();
  let* netlist =
    match Merlin_circuit.Circuit_gen.generate ~scale_down ~name () with
    | nl -> Ok (Merlin_circuit.Placement.place nl)
    | exception Invalid_argument msg -> Error msg
  in
  let print_result (r : FR.result) =
    Format.printf
      "%-16s area=%.2f delay=%.1fps buffers=%d wirelength=%d nets=%d%s \
       runtime=%.2fs@."
      (FR.flow_name r.FR.flow) r.FR.area r.FR.delay r.FR.n_buffers
      r.FR.wirelength r.FR.nets_optimized
      (if r.FR.nets_timed_out > 0 then
         Printf.sprintf " timed-out=%d" r.FR.nets_timed_out
       else "")
      r.FR.runtime
  in
  let* flows =
    match flow with
    | "merlin" -> Ok [ FR.Flow3 ]
    | "lttree-ptree" -> Ok [ FR.Flow1 ]
    | "ptree-vg" -> Ok [ FR.Flow2 ]
    | "hier" -> Ok [ FR.Flow4 ]
    | "all" -> Ok [ FR.Flow1; FR.Flow2; FR.Flow3 ]
    | other ->
      Error
        (Printf.sprintf
           "unknown flow %s (merlin|lttree-ptree|ptree-vg|hier|all)" other)
  in
  Format.printf "%s: %d gates, %d nodes@." name
    (Array.length netlist.Merlin_circuit.Netlist.gates)
    (Merlin_circuit.Netlist.n_nodes netlist);
  let run pool =
    List.iter
      (fun flow ->
         print_result
           (FR.run ~tech ~buffers ~flow ~min_sinks ~jobs ?pool
              ?net_timeout_s:net_timeout netlist))
      flows
  in
  if jobs > 1 then
    Pool.with_pool ~domains:jobs (fun pool ->
        run (Some pool);
        if stats then dump_stats pool)
  else run None;
  Ok 0

(* ---- gen ---- *)

let gen sinks seed shape nets output =
  let* shape = parse_shape shape in
  let make ~name ~seed =
    match shape with
    | None -> Net_gen.random_net ~seed ~name ~n:sinks tech
    | Some shape -> Net_gen.large_net ~seed ~name ~shape ~n:sinks tech
  in
  match nets with
  | None ->
    let net = make ~name:"generated" ~seed in
    (match output with
     | Some path ->
       Net_io.save path net;
       Printf.printf "wrote %s (%d sinks)\n" path sinks
     | None -> print_string (Net_io.to_string net));
    Ok 0
  | Some k when k >= 1 ->
    (* A whole netlist for `submit --netlist`: distinct names (ECO
       manifest keys) and distinct seeds per net. *)
    let netlist =
      List.init k (fun i ->
          make ~name:(Printf.sprintf "gen#n%d" i) ~seed:(seed + i))
    in
    (match output with
     | Some path ->
       Net_io.save_many path netlist;
       Printf.printf "wrote %s (%d nets, %d sinks each)\n" path k sinks
     | None -> print_string (Net_io.to_string_many netlist));
    Ok 0
  | Some k -> Error (Printf.sprintf "--nets %d: need at least 1" k)

(* ---- serve ---- *)

let parse_tcp = function
  | None -> Ok None
  | Some s -> (
    match String.rindex_opt s ':' with
    | None -> Error (Printf.sprintf "--tcp %S: expected HOST:PORT" s)
    | Some i -> (
      let host = String.sub s 0 i in
      let port = String.sub s (i + 1) (String.length s - i - 1) in
      match int_of_string_opt port with
      | Some p when p > 0 && p < 65536 -> Ok (Some (host, p))
      | _ -> Error (Printf.sprintf "--tcp %S: invalid port %S" s port)))

let serve socket_path tcp jobs cache_capacity store_dir default_deadline_s
    verbose =
  setup_verbose verbose;
  (* The pool spawns domains at startup; grow the minor heap first. *)
  Merlin_exec.Runparam.ensure_minor_heap ();
  let* tcp = parse_tcp tcp in
  let cfg =
    { (Serve.Server.default_config ~socket_path) with
      Serve.Server.tcp;
      domains = jobs;
      cache_capacity;
      store_dir;
      default_deadline_s }
  in
  match Serve.Server.start cfg with
  | server ->
    Printf.printf "merlin-serve: listening on %s%s\n%!" socket_path
      (match tcp with
       | None -> ""
       | Some (h, p) -> Printf.sprintf " and %s:%d" h p);
    Serve.Server.wait server;
    Printf.printf "merlin-serve: drained, bye\n%!";
    Ok 0
  | exception Unix.Unix_error (err, _, arg) ->
    Error
      (Printf.sprintf "cannot listen on %s: %s %s" socket_path
         (Unix.error_message err) arg)
  | exception Invalid_argument msg -> Error msg  (* bad --store path *)

(* ---- submit ---- *)

let print_wire_metrics ~cached (m : Metrics.t) =
  Format.printf
    "%-16s area=%.2f delay=%.1fps req=%.1fps buffers=%d wirelength=%d \
     loops=%d runtime=%.2fs%s@."
    m.Metrics.flow m.Metrics.area m.Metrics.delay m.Metrics.root_req
    m.Metrics.n_buffers m.Metrics.wirelength m.Metrics.loops
    m.Metrics.runtime
    (match cached with Serve.Wire.Hit -> "  [cached]" | Serve.Wire.Miss -> "");
  match m.Metrics.tree with
  | Some tree -> Format.printf "tree:@.%a@." Merlin_rtree.Rtree.pp tree
  | None -> ()

let refused_error kind message =
  Error
    (Printf.sprintf "%s: %s" (Serve.Wire.error_kind_to_string kind) message)

(* The batch spec is one algo for every net, so per-net knobs cannot be
   resolved against a single sink count: MERLIN runs with [cfg = None]
   (the server scales per net) unless --alpha pins a config. *)
let make_batch_algo ~flow ~alpha ~objective =
  let* objective = parse_objective objective in
  match Flows.default_algo flow with
  | Some (Flows.Merlin _) ->
    let cfg =
      match alpha with
      | None -> None
      | Some alpha -> Some { Merlin_core.Config.default with alpha }
    in
    Ok (Flows.Merlin { cfg; objective })
  | Some (Flows.Hier _) ->
    Ok
      (Flows.Hier
         { cluster = Merlin_hier.Cluster.default;
           inner = Flows.Merlin { cfg = Some Flows.hier_merlin_cfg; objective }
         })
  | Some algo -> Ok algo
  | None ->
    Error
      (Printf.sprintf "unknown flow %s (merlin|lttree-ptree|ptree-vg|hier)"
         flow)

(* Netlist files may repeat a net name; manifest keys must not. *)
let unique_names nets =
  let seen = Hashtbl.create 16 in
  List.map
    (fun (net : Net.t) ->
       let base = net.Net.name in
       let n =
         match Hashtbl.find_opt seen base with None -> 0 | Some n -> n
       in
       Hashtbl.replace seen base (n + 1);
       ((if n = 0 then base else Printf.sprintf "%s#%d" base n), net))
    nets

(* An ECO manifest is one `<fingerprint> <name>` line per routed net
   (names may contain anything but newlines; fingerprints are hex, so
   the first space is an unambiguous separator). *)
let parse_manifest text =
  let rec go acc lineno = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
      let line = String.trim line in
      if String.equal line "" then go acc (lineno + 1) rest
      else
        match String.index_opt line ' ' with
        | None ->
          Error
            (Printf.sprintf
               "manifest line %d: expected `<fingerprint> <name>`" lineno)
        | Some i ->
          let fp = String.sub line 0 i in
          let name = String.sub line (i + 1) (String.length line - i - 1) in
          go ((name, fp) :: acc) (lineno + 1) rest)
  in
  go [] 1 (String.split_on_char '\n' text)

let load_manifest path =
  match In_channel.with_open_bin path In_channel.input_all with
  | text -> parse_manifest text
  | exception Sys_error msg -> Error msg

let save_manifest_file path entries =
  match
    Out_channel.with_open_bin path (fun oc ->
        List.iter
          (fun (name, fp) -> Printf.fprintf oc "%s %s\n" fp name)
          entries)
  with
  | () -> Ok ()
  | exception Sys_error msg -> Error msg

let render_progress ~json ~total (p : Serve.Wire.progress) =
  let tag =
    Printf.sprintf "[%d/%d] %s" (p.Serve.Wire.index + 1) total
      p.Serve.Wire.name
  in
  match p.Serve.Wire.status with
  | Serve.Wire.Routed { cached; metrics } ->
    (* --json: one canonical metrics object per routed net on stdout;
       everything human goes to stderr. *)
    if json then print_endline (Json.to_string (Metrics.to_json metrics))
    else
      Format.printf
        "%s: area=%.2f delay=%.1fps req=%.1fps buffers=%d runtime=%.2fs%s@."
        tag metrics.Metrics.area metrics.Metrics.delay metrics.Metrics.root_req
        metrics.Metrics.n_buffers metrics.Metrics.runtime
        (match cached with
         | Serve.Wire.Hit -> "  [cached]"
         | Serve.Wire.Miss -> "")
  | Serve.Wire.Unchanged ->
    if not json then Format.printf "%s: unchanged@." tag
  | Serve.Wire.Net_failed { kind; message } ->
    Format.eprintf "%s: %s: %s@." tag
      (Serve.Wire.error_kind_to_string kind)
      message
  | Serve.Wire.Cancelled -> Format.eprintf "%s: cancelled@." tag

let submit_batch client ~netlist_path ~flow ~alpha ~objective ~deadline_s
    ~want_tree ~json ~job ~eco ~save_manifest =
  let* nets =
    match Net_io.load_many netlist_path with
    | nets -> Ok (unique_names nets)
    | exception Sys_error msg -> Error msg
    | exception Failure msg -> Error msg
  in
  let* () =
    match nets with
    | [] -> Error "netlist file contains no nets"
    | _ :: _ -> Ok ()
  in
  let* algo = make_batch_algo ~flow ~alpha ~objective in
  let* manifest =
    match eco with
    | None -> Ok None
    | Some path -> Result.map Option.some (load_manifest path)
  in
  let total = List.length nets in
  let batch =
    { Serve.Wire.job;
      spec = { Flows.tech; buffers; algo };
      nets;
      deadline_s;
      want_tree;
      manifest }
  in
  let* summary =
    Serve.Client.run_batch client batch
      ~on_progress:(render_progress ~json ~total)
  in
  let report fmt = if json then Format.eprintf fmt else Format.printf fmt in
  report
    "batch %s: total=%d routed=%d hits=%d unchanged=%d failed=%d \
     cancelled=%d wall=%.2fs@."
    job summary.Serve.Wire.total summary.Serve.Wire.routed
    summary.Serve.Wire.hits summary.Serve.Wire.unchanged
    summary.Serve.Wire.failed summary.Serve.Wire.cancelled
    summary.Serve.Wire.wall_s;
  let* () =
    match save_manifest with
    | None -> Ok ()
    | Some path ->
      let* () =
        save_manifest_file path
          (List.map (fun (name, net) -> (name, Net_io.fingerprint net)) nets)
      in
      if not json then Format.printf "manifest written to %s@." path;
      Ok ()
  in
  if summary.Serve.Wire.failed > 0 || summary.Serve.Wire.cancelled > 0 then
    Error
      (Printf.sprintf "batch incomplete: %d failed, %d cancelled of %d"
         summary.Serve.Wire.failed summary.Serve.Wire.cancelled
         summary.Serve.Wire.total)
  else Ok 0

let submit file random seed socket_path flow alpha objective deadline_s
    want_tree json id admin netlist_file eco save_manifest =
  let* client =
    match Serve.Client.connect_unix socket_path with
    | c -> Ok c
    | exception Unix.Unix_error (err, _, _) ->
      Error
        (Printf.sprintf "cannot connect to %s: %s (is `merlin-cli serve` \
                         running?)" socket_path (Unix.error_message err))
  in
  Fun.protect ~finally:(fun () -> Serve.Client.close client) @@ fun () ->
  let admin_op =
    match admin with
    | Some "stats" -> Some (Ok Serve.Wire.Stats)
    | Some "ping" -> Some (Ok Serve.Wire.Ping)
    | Some "drain" -> Some (Ok Serve.Wire.Drain)
    | Some "shutdown" -> Some (Ok Serve.Wire.Shutdown)
    | Some other ->
      Some
        (Error
           (Printf.sprintf "unknown admin op %s (stats|ping|drain|shutdown)"
              other))
    | None -> None
  in
  match (admin_op, netlist_file) with
  | Some op, _ ->
    let* op = op in
    let* reply = Serve.Client.call client (Serve.Wire.Admin { job = id; op }) in
    (match reply with
     | Serve.Wire.Stats_reply { stats; _ } ->
       print_endline (Json.to_string stats);
       Ok 0
     | Serve.Wire.Pong _ ->
       print_endline "pong";
       Ok 0
     | Serve.Wire.Admin_ok { what; _ } ->
       print_endline what;
       Ok 0
     | Serve.Wire.Refused { kind; message; _ } -> refused_error kind message
     | Serve.Wire.Reply _ | Serve.Wire.Progress _ | Serve.Wire.Batch_done _ ->
       Error "unexpected reply to an admin request")
  | None, Some netlist_path ->
    submit_batch client ~netlist_path ~flow ~alpha ~objective ~deadline_s
      ~want_tree ~json ~job:id ~eco ~save_manifest
  | None, None ->
    let* net = load_net file random seed in
    let* algo = make_algo ~flow ~alpha ~objective net in
    let* reply =
      Serve.Client.call client
        (Serve.Wire.Route
           { Serve.Wire.job = id;
             spec = { Flows.tech; buffers; algo };
             net;
             deadline_s;
             want_tree })
    in
    (match reply with
     | Serve.Wire.Reply { cached; metrics; _ } ->
       if json then print_endline (Json.to_string (Metrics.to_json metrics))
       else print_wire_metrics ~cached metrics;
       Ok 0
     | Serve.Wire.Refused { kind; message; _ } -> refused_error kind message
     | Serve.Wire.Stats_reply _ | Serve.Wire.Pong _ | Serve.Wire.Admin_ok _
     | Serve.Wire.Progress _ | Serve.Wire.Batch_done _ ->
       Error "unexpected reply to a route request")

(* ---- cmdliner plumbing ---- *)

let file_arg =
  Arg.(value & pos 0 (some string) None & info [] ~docv:"NET" ~doc:"Net file (Net_io format)")

let random_arg =
  Arg.(value & opt (some int) None & info [ "random" ] ~docv:"N" ~doc:"Use a random net with $(docv) sinks")

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Random seed")

let flow_arg =
  Arg.(
    value & opt string "merlin"
    & info [ "flow"; "algo" ]
        ~doc:"merlin | lttree-ptree | ptree-vg | hier | all")

let shape_arg =
  Arg.(
    value & opt (some string) None
    & info [ "shape" ] ~docv:"SHAPE"
        ~doc:"Large-net shape for generated nets: clock-grid | high-fanout \
              | clustered (default: the paper's small-net recipe)")

let cluster_size_arg =
  Arg.(
    value & opt (some int) None
    & info [ "cluster-size" ] ~docv:"N"
        ~doc:"Hier flow: target sinks per cluster (default 10)")

let clusters_arg =
  Arg.(
    value & opt (some int) None
    & info [ "clusters" ] ~docv:"K"
        ~doc:"Hier flow: force the cluster count")

let alpha_arg =
  Arg.(value & opt (some int) None & info [ "alpha" ] ~doc:"Max branching factor of the C-alpha tree")

let objective_arg =
  Arg.(value & opt (some string) None & info [ "objective" ] ~doc:"best | area:<budget> | req:<floor>")

let json_arg =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:"Emit metrics as JSON (the versioned Metrics wire schema)")

let tree_arg = Arg.(value & flag & info [ "tree" ] ~doc:"Print/include the routing tree")

let verbose_arg = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Debug logging")

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:"Worker domains for parallel execution (1 = sequential)")

let stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ] ~doc:"Dump execution-engine telemetry to stderr")

let socket_arg =
  Arg.(
    value
    & opt string "/tmp/merlin-serve.sock"
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path")

let route_cmd =
  Cmd.v
    (Cmd.info "route" ~doc:"Build a buffered routing tree for a net")
    (Term.term_result'
       Term.(
         const route $ file_arg $ random_arg $ seed_arg $ shape_arg $ flow_arg
         $ alpha_arg $ objective_arg $ cluster_size_arg $ clusters_arg
         $ json_arg $ tree_arg $ verbose_arg $ jobs_arg $ stats_arg))

let circuit_cmd =
  let name_arg =
    Arg.(
      value & opt string "B9"
      & info [ "name" ] ~docv:"CIRCUIT"
          ~doc:"Table-2 circuit name (see Circuit_gen.table2_specs)")
  in
  let scale_down =
    Arg.(
      value & opt int 200
      & info [ "scale-down" ] ~docv:"K" ~doc:"Divide the published gate count by $(docv)")
  in
  let min_sinks =
    Arg.(
      value & opt int 2
      & info [ "min-sinks" ] ~doc:"Skip nets with fewer sinks")
  in
  let net_timeout =
    Arg.(
      value & opt (some float) None
      & info [ "net-timeout" ] ~docv:"S"
          ~doc:"Per-net optimization budget in seconds; expired nets keep \
                their star routing (non-deterministic — off by default)")
  in
  Cmd.v
    (Cmd.info "circuit"
       ~doc:"Run a full-circuit flow (Table 2 style) on the execution engine")
    (Term.term_result'
       Term.(
         const circuit $ name_arg $ scale_down $ flow_arg $ min_sinks
         $ jobs_arg $ net_timeout $ stats_arg))

let gen_cmd =
  let sinks = Arg.(value & opt int 8 & info [ "sinks" ] ~doc:"Sink count") in
  let nets =
    Arg.(
      value & opt (some int) None
      & info [ "nets" ] ~docv:"K"
          ~doc:"Generate a $(docv)-net netlist file (for submit --netlist)")
  in
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~doc:"Output file")
  in
  Cmd.v
    (Cmd.info "gen"
       ~doc:"Generate a random net (paper Section IV recipe, or a large-net \
             shape with --shape)")
    (Term.term_result'
       Term.(const gen $ sinks $ seed_arg $ shape_arg $ nets $ output))

let serve_cmd =
  let tcp_arg =
    Arg.(
      value & opt (some string) None
      & info [ "tcp" ] ~docv:"HOST:PORT"
          ~doc:"Additionally listen on a TCP socket")
  in
  let serve_jobs =
    Arg.(
      value & opt (some int) None
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:"Worker domains (default: recommended domain count)")
  in
  let cache_arg =
    Arg.(
      value & opt int 256
      & info [ "cache" ] ~docv:"N" ~doc:"Result-cache capacity (entries)")
  in
  let store_arg =
    Arg.(
      value & opt (some string) None
      & info [ "store" ] ~docv:"DIR"
          ~doc:"Persistent result-cache directory (survives restarts)")
  in
  let deadline_arg =
    Arg.(
      value & opt (some float) None
      & info [ "default-deadline" ] ~docv:"S"
          ~doc:"Budget applied to requests that carry no deadline")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the routing-service daemon (length-prefixed JSON over a \
             Unix socket)")
    (Term.term_result'
       Term.(
         const serve $ socket_arg $ tcp_arg $ serve_jobs $ cache_arg
         $ store_arg $ deadline_arg $ verbose_arg))

let submit_cmd =
  let deadline_arg =
    Arg.(
      value & opt (some float) None
      & info [ "deadline" ] ~docv:"S" ~doc:"Per-request compute budget")
  in
  let id_arg =
    Arg.(
      value & opt string "cli"
      & info [ "id" ] ~doc:"Request id echoed in the reply")
  in
  let admin_arg =
    Arg.(
      value & opt (some string) None
      & info [ "admin" ] ~docv:"OP"
          ~doc:"Send an admin op instead of a route: stats | ping | drain \
                | shutdown")
  in
  let netlist_arg =
    Arg.(
      value & opt (some string) None
      & info [ "netlist" ] ~docv:"FILE"
          ~doc:"Submit every net of a multi-net file as one batch job with \
                streamed progress")
  in
  let eco_arg =
    Arg.(
      value & opt (some string) None
      & info [ "eco" ] ~docv:"MANIFEST"
          ~doc:"ECO mode for --netlist: only re-route nets whose fingerprint \
                differs from $(docv) (written by --save-manifest)")
  in
  let save_manifest_arg =
    Arg.(
      value & opt (some string) None
      & info [ "save-manifest" ] ~docv:"FILE"
          ~doc:"After a --netlist batch, write its fingerprint manifest for \
                a later --eco run")
  in
  Cmd.v
    (Cmd.info "submit"
       ~doc:"Submit a routing request (or a whole-netlist batch) to a \
             running daemon")
    (Term.term_result'
       Term.(
         const submit $ file_arg $ random_arg $ seed_arg $ socket_arg
         $ flow_arg $ alpha_arg $ objective_arg $ deadline_arg $ tree_arg
         $ json_arg $ id_arg $ admin_arg $ netlist_arg $ eco_arg
         $ save_manifest_arg))

let main =
  Cmd.group
    (Cmd.info "merlin-cli" ~version:"1.0.0"
       ~doc:"MERLIN buffered routing tree generation (DAC 1999 reproduction)")
    [ route_cmd; gen_cmd; circuit_cmd; serve_cmd; submit_cmd ]

let () = exit (Cmd.eval' main)
