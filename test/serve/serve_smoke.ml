(* End-to-end smoke test of the routing-service daemon (@serve-smoke).

   Boots a server on an ephemeral Unix socket (plus an ephemeral TCP
   port), then checks, over real sockets:

   - N concurrent submits return byte-identical metrics to direct
     in-process [Flows.run] calls (runtime zeroed on both sides — wall
     clock is the one legitimately non-deterministic field);
   - a repeated request is answered from the cache: [cached] flips to
     true, the cache hit counter increments and the pool's submitted
     counter does not move;
   - a request with a tiny deadline gets a structured timeout reply and
     the daemon keeps serving afterwards;
   - the TCP listener answers;
   - a version-1 frame gets a structured bad-request refusal and the
     same connection keeps serving v2;
   - a whole-netlist batch streams one progress frame per net and is
     byte-identical to per-net [Flows.run] at every pool size tested
     (-j 1, 2 and 4);
   - an ECO batch re-routes exactly the nets whose fingerprint changed
     versus the manifest and answers the rest [Unchanged] without a
     pool task;
   - a daemon restarted over a warm persistent store answers a repeated
     batch entirely from the store: all hits, zero pool submissions;
   - draining mid-batch cancels the queued nets but still delivers the
     terminal summary;
   - drain refuses new routes while ping still answers;
   - shutdown via the protocol unblocks [Server.wait]. *)

open Merlin_tech
open Merlin_net
module Flows = Merlin_flows.Flows
module Json = Merlin_report.Json
module Metrics = Merlin_report.Metrics
module Serve = Merlin_serve

let tech = Tech.default
let buffers = Buffer_lib.default

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("FAIL: " ^ m); exit 1) fmt

let check name b = if not b then fail "%s" name

let spec algo = { Flows.tech; buffers; algo }

let fast_merlin =
  Flows.Merlin
    { cfg =
        Some
          { Merlin_core.Config.default with
            Merlin_core.Config.candidate_limit = 8;
            max_curve = 5;
            buffer_trials = 4;
            max_iters = 1 };
      objective = Merlin_core.Objective.Best_req }

(* The four concurrent requests: distinct nets, one per flow.  The hier
   request exercises the daemon's nested pool use: the scheduled job
   farms its clusters as pool tasks from inside a pool task (helping
   await keeps that deadlock-free), and the reply must still be
   byte-identical to a poolless in-process run. *)
let requests =
  [| ( "r-flow1",
       spec (Flows.Lttree_ptree { max_fanout = 10 }),
       Net_gen.random_net ~seed:11 ~name:"smoke1" ~n:6 tech );
     ( "r-flow2",
       spec (Flows.Ptree_vg { refine_seg = None }),
       Net_gen.random_net ~seed:12 ~name:"smoke2" ~n:6 tech );
     ( "r-flow3",
       spec fast_merlin,
       Net_gen.random_net ~seed:13 ~name:"smoke3" ~n:5 tech );
     ( "r-flow4",
       spec
         (Flows.Hier
            { cluster = { Merlin_hier.Cluster.default with target_size = 6 };
              inner = fast_merlin }),
       Net_gen.large_net ~seed:14 ~name:"smoke4" ~shape:Net_gen.Clustered
         ~n:18 tech ) |]

let metrics_fingerprint (m : Metrics.t) =
  Json.to_string (Metrics.to_json { m with Metrics.runtime = 0.0 })

let expect_reply ~ctx = function
  | Ok (Serve.Wire.Reply { job; cached; metrics }) -> (job, cached, metrics)
  | Ok other ->
    fail "%s: unexpected reply %s" ctx (Serve.Wire.encode_server other)
  | Error msg -> fail "%s: %s" ctx msg

let stat_of path stats =
  let rec go j = function
    | [] -> (match Json.to_num j with Some f -> int_of_float f | None -> fail "stats: %s not a number" (String.concat "." path))
    | k :: rest -> (
      match Json.member k j with
      | Some v -> go v rest
      | None -> fail "stats: missing %s" (String.concat "." path))
  in
  go stats path

let get_stats client =
  match
    Serve.Client.call client
      (Serve.Wire.Admin { job = "stats"; op = Serve.Wire.Stats })
  with
  | Ok (Serve.Wire.Stats_reply { stats; _ }) -> stats
  | Ok other -> fail "stats: unexpected reply %s" (Serve.Wire.encode_server other)
  | Error msg -> fail "stats: %s" msg

let ping ~ctx client =
  match
    Serve.Client.call client
      (Serve.Wire.Admin { job = "ping"; op = Serve.Wire.Ping })
  with
  | Ok (Serve.Wire.Pong _) -> ()
  | Ok other -> fail "%s: unexpected reply %s" ctx (Serve.Wire.encode_server other)
  | Error msg -> fail "%s: %s" ctx msg

(* --- batch fixtures ------------------------------------------------ *)

let batch_spec = spec fast_merlin

let batch_nets =
  List.init 6 (fun i ->
      let name = Printf.sprintf "bn%d" i in
      (name, Net_gen.random_net ~seed:(20 + i) ~name ~n:(4 + (i mod 3)) tech))

(* Direct per-net reference runs, computed once: the batch path must be
   byte-identical to these at every pool size. *)
let direct_fps =
  List.map
    (fun (name, net) ->
       ( name,
         metrics_fingerprint
           (Flows.wire_metrics ~with_tree:true (Flows.run batch_spec net)) ))
    batch_nets

(* Submit [nets] as one batch and drain the stream; returns the
   per-index statuses and the terminal summary, checking frame-level
   invariants (job echoed, seq strictly increasing, every index
   reported exactly once). *)
let run_batch_on ~ctx ?manifest client nets =
  let total = List.length nets in
  let statuses = Array.make total None in
  let last_seq = ref 0 in
  match
    Serve.Client.run_batch client
      { Serve.Wire.job = ctx; spec = batch_spec; nets; deadline_s = None;
        want_tree = true; manifest }
      ~on_progress:(fun p ->
          check (ctx ^ ": job echoed on progress")
            (String.equal p.Serve.Wire.job ctx);
          check (ctx ^ ": seq strictly increasing")
            (p.Serve.Wire.seq = !last_seq + 1);
          last_seq := p.Serve.Wire.seq;
          check (ctx ^ ": index in range")
            (p.Serve.Wire.index >= 0 && p.Serve.Wire.index < total);
          (match statuses.(p.Serve.Wire.index) with
           | Some _ -> fail "%s: index %d reported twice" ctx p.Serve.Wire.index
           | None -> ());
          statuses.(p.Serve.Wire.index) <- Some p.Serve.Wire.status)
  with
  | Error msg -> fail "%s: %s" ctx msg
  | Ok summary ->
    check (ctx ^ ": summary total") (summary.Serve.Wire.total = total);
    Array.iteri
      (fun i s ->
         match s with
         | None -> fail "%s: no progress frame for net %d" ctx i
         | Some _ -> ())
      statuses;
    (Array.map Option.get statuses, summary)

let check_all_routed ~ctx ~expect_cached statuses =
  Array.iteri
    (fun i -> function
       | Serve.Wire.Routed { cached; metrics } ->
         let name, _ = List.nth batch_nets i in
         let expected = List.assoc name direct_fps in
         if not (String.equal (metrics_fingerprint metrics) expected) then
           fail "%s: net %s differs from direct Flows.run" ctx name;
         (match (expect_cached, cached) with
          | Some Serve.Wire.Hit, Serve.Wire.Miss ->
            fail "%s: net %s expected a cache hit" ctx name
          | Some Serve.Wire.Miss, Serve.Wire.Hit ->
            fail "%s: net %s expected a cache miss" ctx name
          | _ -> ())
       | _ -> fail "%s: net %d not routed" ctx i)
    statuses

let fresh_socket tag =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "merlin-smoke-%s-%d.sock" tag (Unix.getpid ()))

let with_server ?(domains = 2) ?store_dir tag f =
  let socket_path = fresh_socket tag in
  let server =
    Serve.Server.start
      { (Serve.Server.default_config ~socket_path) with
        Serve.Server.domains = Some domains;
        cache_capacity = 8;
        store_dir }
  in
  let client = Serve.Client.connect_unix socket_path in
  let r = f client in
  Serve.Client.close client;
  Serve.Server.stop server;
  r

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let () =
  let socket_path = fresh_socket "main" in
  let server =
    Serve.Server.start
      { (Serve.Server.default_config ~socket_path) with
        Serve.Server.tcp = Some ("127.0.0.1", 0);
        domains = Some 2;
        cache_capacity = 8 }
  in

  (* --- concurrent submits, byte-identical to direct Flows.run --- *)
  let replies = Array.make (Array.length requests) None in
  let threads =
    Array.mapi
      (fun i (job, spec, net) ->
         Thread.create
           (fun () ->
              let client = Serve.Client.connect_unix socket_path in
              let reply =
                expect_reply ~ctx:job
                  (Serve.Client.call client
                     (Serve.Wire.Route
                        { Serve.Wire.job; spec; net; deadline_s = None;
                          want_tree = true }))
              in
              Serve.Client.close client;
              replies.(i) <- Some reply)
           ())
      requests
  in
  Array.iter Thread.join threads;
  Array.iteri
    (fun i (job, spec, net) ->
       match replies.(i) with
       | None -> fail "%s: no reply" job
       | Some (rjob, _, metrics) ->
         check (job ^ ": echoes job id") (String.equal rjob job);
         let direct =
           Flows.wire_metrics ~with_tree:true (Flows.run spec net)
         in
         if
           not
             (String.equal
                (metrics_fingerprint metrics)
                (metrics_fingerprint direct))
         then
           fail "%s: server metrics differ from direct Flows.run\n  srv: %s\n  dir: %s"
             job
             (metrics_fingerprint metrics)
             (metrics_fingerprint direct))
    requests;
  (match replies.(3) with
   | Some (_, _, m) ->
     check "hier reply carries a cluster count" (m.Metrics.clusters > 1);
     check "hier reply carries a decomposition depth" (m.Metrics.levels >= 2);
     check "hier reply sizes match the cluster count"
       (List.length m.Metrics.cluster_sizes = m.Metrics.clusters)
   | None -> fail "r-flow4: no reply");
  print_endline "smoke: concurrent submits byte-identical to direct runs";

  (* --- repeated request answered from the cache, no new pool task --- *)
  let client = Serve.Client.connect_unix socket_path in
  let before = get_stats client in
  let job, spec0, net0 = requests.(0) in
  let _, again_cached, again_metrics =
    expect_reply ~ctx:"repeat"
      (Serve.Client.call client
         (Serve.Wire.Route
            { Serve.Wire.job; spec = spec0; net = net0; deadline_s = None;
              want_tree = true }))
  in
  check "repeat: served from cache"
    (match again_cached with Serve.Wire.Hit -> true | Serve.Wire.Miss -> false);
  check "repeat: same bytes"
    (String.equal
       (metrics_fingerprint again_metrics)
       (metrics_fingerprint
          (Flows.wire_metrics ~with_tree:true (Flows.run spec0 net0))));
  let after = get_stats client in
  let hits j = stat_of [ "cache"; "hits" ] j
  and submitted j = stat_of [ "pool"; "submitted" ] j in
  check "repeat: cache hit counted" (hits after = hits before + 1);
  check "repeat: no new pool task" (submitted after = submitted before);
  print_endline "smoke: repeated request hit the cache without a pool task";

  (* --- tiny deadline: structured timeout, daemon survives --- *)
  let slow_net = Net_gen.random_net ~seed:99 ~name:"slow" ~n:10 tech in
  (match
     Serve.Client.call client
       (Serve.Wire.Route
          { Serve.Wire.job = "r-deadline";
            spec = spec (Flows.Merlin { cfg = None; objective = Merlin_core.Objective.Best_req });
            net = slow_net;
            deadline_s = Some 1e-4;
            want_tree = false })
   with
   | Ok (Serve.Wire.Refused { kind = Serve.Wire.Timeout; job = rjob; _ }) ->
     check "deadline: echoes job id" (String.equal rjob "r-deadline")
   | Ok other ->
     fail "deadline: expected a timeout, got %s" (Serve.Wire.encode_server other)
   | Error msg -> fail "deadline: %s" msg);
  ping ~ctx:"post-timeout ping" client;
  print_endline "smoke: deadline exceeded produced a structured timeout reply";

  (* --- TCP listener answers --- *)
  (match Serve.Server.tcp_port server with
   | None -> fail "no TCP port bound"
   | Some port ->
     let tcp = Serve.Client.connect_tcp "127.0.0.1" port in
     ping ~ctx:"tcp ping" tcp;
     Serve.Client.close tcp);
  print_endline "smoke: TCP listener answers";

  (* --- a v1 frame is refused like any malformed one; v2 still served --- *)
  let raw = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect raw (Unix.ADDR_UNIX socket_path);
  let raw_call payload =
    Serve.Wire.write_frame raw payload;
    match Result.map Serve.Wire.decode_server (Serve.Wire.read_frame raw) with
    | Ok (Ok (_, m)) -> m
    | Ok (Error msg) -> fail "raw frame: %s" msg
    | Error _ -> fail "raw frame: connection closed"
  in
  (match raw_call {|{"v":1,"type":"ping"}|} with
   | Serve.Wire.Refused { kind = Serve.Wire.Bad_request; job = ""; _ } -> ()
   | other -> fail "v1 ping: got %s" (Serve.Wire.encode_server other));
  let v2_ping = Serve.Wire.Admin { job = "after-v1"; op = Serve.Wire.Ping } in
  (match raw_call (Serve.Wire.encode_client v2_ping) with
   | Serve.Wire.Pong { job = "after-v1" } -> ()
   | other -> fail "v2 ping after v1: got %s" (Serve.Wire.encode_server other));
  Unix.close raw;
  print_endline "smoke: v1 frame refused, connection still serves v2";

  (* --- batch: byte-identical to per-net runs at every pool size --- *)
  List.iter
    (fun dj ->
       with_server ~domains:dj (Printf.sprintf "j%d" dj) (fun bclient ->
           let ctx = Printf.sprintf "batch-j%d" dj in
           let statuses, summary = run_batch_on ~ctx bclient batch_nets in
           check_all_routed ~ctx ~expect_cached:(Some Serve.Wire.Miss) statuses;
           check (ctx ^ ": summary counts routed work")
             (summary.Serve.Wire.routed = List.length batch_nets
              && summary.Serve.Wire.hits = 0
              && summary.Serve.Wire.unchanged = 0
              && summary.Serve.Wire.failed = 0
              && summary.Serve.Wire.cancelled = 0)))
    [ 1; 2; 4 ];
  print_endline
    "smoke: batch byte-identical to per-net runs at -j 1, 2 and 4";

  (* --- ECO: only changed-fingerprint nets are re-routed --- *)
  with_server "eco" (fun bclient ->
      let statuses, _ = run_batch_on ~ctx:"eco-base" bclient batch_nets in
      check_all_routed ~ctx:"eco-base" ~expect_cached:None statuses;
      let manifest =
        List.map (fun (name, net) -> (name, Net_io.fingerprint net)) batch_nets
      in
      let changed = [ 1; 4 ] in
      let bump_req (net : Net.t) =
        Net.make ~name:net.Net.name ~source:net.Net.source
          ~driver:net.Net.driver
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
             if List.mem i changed then (name, bump_req net) else (name, net))
          batch_nets
      in
      let before = get_stats bclient in
      let statuses, summary = run_batch_on ~ctx:"eco" ~manifest bclient eco_nets in
      let after = get_stats bclient in
      check "eco: summary splits routed vs unchanged"
        (summary.Serve.Wire.routed = List.length changed
         && summary.Serve.Wire.unchanged
            = List.length batch_nets - List.length changed
         && summary.Serve.Wire.hits = 0
         && summary.Serve.Wire.failed = 0
         && summary.Serve.Wire.cancelled = 0);
      Array.iteri
        (fun i s ->
           match (List.mem i changed, s) with
           | true, Serve.Wire.Routed { cached = Serve.Wire.Miss; _ } -> ()
           | false, Serve.Wire.Unchanged -> ()
           | _, _ -> fail "eco: net %d has the wrong status" i)
        statuses;
      check "eco: pool ran exactly the changed nets"
        (stat_of [ "pool"; "submitted" ] after
         = stat_of [ "pool"; "submitted" ] before + List.length changed));
  print_endline "smoke: ECO re-routed exactly the changed nets";

  (* --- persistent store: restart serves the batch without the pool --- *)
  let store_dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "merlin-smoke-store-%d" (Unix.getpid ()))
  in
  with_server ~store_dir "store1" (fun bclient ->
      let statuses, summary = run_batch_on ~ctx:"store-cold" bclient batch_nets in
      check_all_routed ~ctx:"store-cold" ~expect_cached:(Some Serve.Wire.Miss)
        statuses;
      check "store-cold: all routed"
        (summary.Serve.Wire.routed = List.length batch_nets);
      let stats = get_stats bclient in
      check "store-cold: every result written to the store"
        (stat_of [ "cache"; "store"; "writes" ] stats = List.length batch_nets));
  with_server ~store_dir "store2" (fun bclient ->
      let statuses, summary = run_batch_on ~ctx:"store-warm" bclient batch_nets in
      check_all_routed ~ctx:"store-warm" ~expect_cached:(Some Serve.Wire.Hit)
        statuses;
      check "store-warm: everything a cache hit"
        (summary.Serve.Wire.hits = List.length batch_nets
         && summary.Serve.Wire.routed = 0);
      let stats = get_stats bclient in
      check "store-warm: zero pool submissions"
        (stat_of [ "pool"; "submitted" ] stats = 0);
      check "store-warm: hits came from the persistent tier"
        (stat_of [ "cache"; "store"; "hits" ] stats >= List.length batch_nets));
  rm_rf store_dir;
  print_endline
    "smoke: restart over a warm store served the batch with zero pool tasks";

  (* --- drain mid-batch cancels the queued nets --- *)
  let drain_socket = fresh_socket "drain" in
  let drain_server =
    Serve.Server.start
      { (Serve.Server.default_config ~socket_path:drain_socket) with
        Serve.Server.domains = Some 1;
        cache_capacity = 8 }
  in
  (* One heavy net first so the drain lands while it computes; the rest
     queue behind it on the single-worker pool and must be cancelled. *)
  let heavy_nets =
    ( "heavy",
      Net_gen.large_net ~seed:77 ~name:"heavy" ~shape:Net_gen.Clustered ~n:60
        tech )
    :: List.init 6 (fun i ->
           let name = Printf.sprintf "queued%d" i in
           (name, Net_gen.random_net ~seed:(40 + i) ~name ~n:5 tech))
  in
  let drain_result = ref None in
  (* Drive the stream by hand with [send]/[read] — the low-level half
     of the session API — instead of [run_batch]. *)
  let batch_thread =
    Thread.create
      (fun () ->
         let c = Serve.Client.connect_unix drain_socket in
         (match
            Serve.Client.send c
              (Serve.Wire.Batch
                 { Serve.Wire.job = "drain-batch"; spec = batch_spec;
                   nets = heavy_nets; deadline_s = None; want_tree = false;
                   manifest = None })
          with
          | Ok () -> ()
          | Error msg -> fail "drain-batch send: %s" msg);
         let rec drain () =
           match Serve.Client.read c with
           | Ok (Serve.Wire.Progress _) -> drain ()
           | Ok (Serve.Wire.Batch_done { summary; _ }) ->
             drain_result := Some summary
           | Ok other ->
             fail "drain-batch: unexpected frame %s"
               (Serve.Wire.encode_server other)
           | Error msg -> fail "drain-batch read: %s" msg
         in
         drain ();
         Serve.Client.close c)
      ()
  in
  let admin = Serve.Client.connect_unix drain_socket in
  let rec wait_active tries =
    if tries = 0 then fail "drain-batch: batch never became active";
    let s = get_stats admin in
    if stat_of [ "server"; "active" ] s >= 1
       && stat_of [ "pool"; "submitted" ] s >= 1
    then ()
    else (Thread.delay 0.005; wait_active (tries - 1))
  in
  wait_active 2000;
  (match
     Serve.Client.call admin
       (Serve.Wire.Admin { job = "drain"; op = Serve.Wire.Drain })
   with
   | Ok (Serve.Wire.Admin_ok _) -> ()
   | Ok other -> fail "drain: %s" (Serve.Wire.encode_server other)
   | Error msg -> fail "drain: %s" msg);
  Thread.join batch_thread;
  (match !drain_result with
   | None -> fail "drain-batch: no summary"
   | Some s ->
     check "drain-batch: queued nets cancelled" (s.Serve.Wire.cancelled >= 1);
     check "drain-batch: every net accounted for"
       (s.Serve.Wire.routed + s.Serve.Wire.hits + s.Serve.Wire.unchanged
        + s.Serve.Wire.failed + s.Serve.Wire.cancelled
        = List.length heavy_nets));
  (* A fresh batch on the draining server is refused as a stream. *)
  (match
     Serve.Client.run_batch admin
       { Serve.Wire.job = "post-drain"; spec = batch_spec;
         nets = [ List.nth batch_nets 0 ]; deadline_s = None;
         want_tree = false; manifest = None }
       ~on_progress:(fun _ -> ())
   with
   | Error _ -> ()
   | Ok _ -> fail "post-drain: draining server accepted a batch");
  Serve.Client.close admin;
  Serve.Server.stop drain_server;
  print_endline "smoke: drain mid-batch cancelled the queued nets";

  (* --- drain refuses routes, then shutdown unblocks wait --- *)
  (match
     Serve.Client.call client
       (Serve.Wire.Admin { job = "drain"; op = Serve.Wire.Drain })
   with
   | Ok (Serve.Wire.Admin_ok _) -> ()
   | Ok other -> fail "drain: %s" (Serve.Wire.encode_server other)
   | Error msg -> fail "drain: %s" msg);
  (match
     Serve.Client.call client
       (Serve.Wire.Route
          { Serve.Wire.job = "r-drained"; spec = spec0; net = net0;
            deadline_s = None; want_tree = false })
   with
   | Ok (Serve.Wire.Refused { kind = Serve.Wire.Draining; _ }) -> ()
   | Ok other ->
     fail "draining: expected a refusal, got %s" (Serve.Wire.encode_server other)
   | Error msg -> fail "draining: %s" msg);
  (match
     Serve.Client.call client
       (Serve.Wire.Admin { job = "bye"; op = Serve.Wire.Shutdown })
   with
   | Ok (Serve.Wire.Admin_ok _) -> ()
   | Ok other -> fail "shutdown: %s" (Serve.Wire.encode_server other)
   | Error msg -> fail "shutdown: %s" msg);
  Serve.Client.close client;
  Serve.Server.wait server;
  Serve.Server.stop server;  (* idempotent after wait *)
  check "socket unlinked" (not (Sys.file_exists socket_path));
  print_endline "smoke: drain refused new work and shutdown unblocked wait";
  print_endline "serve smoke OK"
