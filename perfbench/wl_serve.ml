(* The serving workload: a merlin-cli daemon, in its own process with a
   persistent store and one worker domain, answers the optimizable nets
   of C7552 and Desa in five phases —

     cold   batches of nets the daemon has not seen: the netlist, then
            moved copies of it; every net misses, so the pool computes
            it and the cache writes both tiers;
     warm   repeated batches answered from the memory LRU;
     route  open-loop single-net Route traffic at a fixed rate, warm
            nets on one connection and a fixed share of fresh nets,
            which miss, on the other;
     eco    batches with a quarter of the nets moved, sent with the
            netlist's manifest, so exactly those nets re-route;
     store  a second daemon over the same store with an LRU smaller
            than the netlist, so every lookup reads, decodes and
            promotes a blob.

   Afterwards every reply is checked against in-process Flows.run of
   the same net, or of the net it is a moved copy of.  The client speaks
   the wire protocol over raw frames so that the traced run can time its
   own encode, wait and decode. *)

open Merlin_geometry
open Merlin_net
open Common
module Stats = Perfbench_kit.Stats
module Wire = Merlin_serve.Wire
module Metrics = Merlin_report.Metrics
module FR = Merlin_circuit.Flow_runner

let circuits = [ "C7552"; "Desa" ]
let scale_down = 60
let cold_passes = 5
let warm_passes = 10
let eco_passes = 5
let store_passes = 10
let store_lru = 64
let setup_reps = 9
let route_rate = 150.0  (* requests per second, open loop *)
let fresh_every = 50    (* one request in 50 is a fresh net *)
let fresh_sinks = 4     (* sinks of the net fresh requests copy *)

let is_fresh i = i mod fresh_every = fresh_every / 2
let min_routes = 1100   (* keeps 10 samples beyond the p99 *)
let route_deadline_s = 30.0  (* budget a fresh route carries *)

(* The tight MERLIN spec of the batch-serving table. *)
let spec =
  { Flows.tech;
    buffers;
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

let inputs seed =
  let d = offset seed in
  List.concat_map
    (fun name ->
       let netlist =
         Merlin_circuit.Placement.place
           (Merlin_circuit.Circuit_gen.generate ~scale_down ~name ())
       in
       List.map (fun (n, net) -> (n, translate d net)) (FR.nets ~tech netlist))
    circuits

(* ------------------------------------------------------------------ *)
(* Daemons                                                             *)
(* ------------------------------------------------------------------ *)

type daemon = {
  pid : int;
  socket : string;
  log : string;  (** the daemon's stderr *)
  mutable alive : bool;
}

(* Every daemon this process started, stopped on every exit path. *)
let daemons : daemon list ref = ref []

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let connect path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> fd
  | exception e ->
    Unix.close fd;
    raise e

(* One request, one reply, untimed: admin traffic. *)
let call fd msg =
  Wire.write_frame fd (Wire.encode_client msg);
  match Wire.read_frame fd with
  | Ok s -> Result.map snd (Wire.decode_server s)
  | Error _ -> Error "connection lost"

let exited pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true

let stop d =
  if d.alive then begin
    d.alive <- false;
    (match connect d.socket with
     | fd ->
       ignore (call fd (Wire.Admin { job = "stop"; op = Wire.Shutdown }));
       Unix.close fd
     | exception Unix.Unix_error _ -> ());
    let deadline = Clock.monotonic_s () +. 10.0 in
    let rec reap () =
      if exited d.pid then ()
      else if Clock.monotonic_s () > deadline then begin
        (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] d.pid)
      end
      else begin
        Unix.sleepf 0.01;
        reap ()
      end
    in
    reap ();
    (try Unix.unlink d.socket with Unix.Unix_error _ -> ())
  end

let stop_all () = List.iter stop !daemons

(* Bytes a stopped daemon allocated, from the GC totals in its log; the
   log's other lines go to stderr.  NaN when the daemon did not exit
   normally. *)
let allocated_bytes d =
  match open_in d.log with
  | exception Sys_error _ -> nan
  | ic ->
    let rec scan acc =
      match input_line ic with
      | exception End_of_file -> acc
      | line ->
        (match Scanf.sscanf line "%[a-z_]: %f%!" (fun k v -> (k, v)) with
         | "allocated_words", words -> scan (words *. float_of_int (Sys.word_size / 8))
         | _ -> scan acc
         | exception (Scanf.Scan_failure _ | End_of_file | Failure _) ->
           prerr_endline line;
           scan acc)
    in
    Fun.protect ~finally:(fun () -> close_in ic) (fun () -> scan nan)

(* The daemon's environment: OCAMLRUNPARAM gains [v=0x400], so the
   runtime writes its GC totals, every domain's, to stderr at exit. *)
let daemon_env () =
  let gc_stats = "v=0x400" in
  let rp = "OCAMLRUNPARAM=" in
  let found = ref false in
  let env =
    Array.map
      (fun kv ->
         if String.starts_with ~prefix:rp kv then begin
           found := true;
           if kv = rp then kv ^ gc_stats else kv ^ "," ^ gc_stats
         end
         else kv)
      (Unix.environment ())
  in
  if !found then env else Array.append env [| rp ^ gc_stats |]

(* Spawn [merlin-cli serve] and wait until it answers a ping. *)
let spawn opts ~tag ~cache ~store =
  let socket = Filename.concat opts.run_dir (tag ^ ".sock") in
  let log = Filename.concat opts.run_dir (tag ^ ".err") in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let err = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close devnull; Unix.close err)
      (fun () ->
         Unix.create_process_env opts.cli
           [| opts.cli; "serve"; "--socket"; socket; "--store"; store; "-j";
              "1"; "--cache"; string_of_int cache |]
           (daemon_env ()) devnull devnull err)
  in
  let d = { pid; socket; log; alive = true } in
  daemons := d :: !daemons;
  let deadline = Clock.monotonic_s () +. 30.0 in
  let rec ready () =
    let pong =
      match connect socket with
      | fd ->
        let r = call fd (Wire.Admin { job = "ping"; op = Wire.Ping }) in
        Unix.close fd;
        (match r with Ok (Wire.Pong _) -> true | _ -> false)
      | exception Unix.Unix_error _ -> false
    in
    if pong then ()
    else if exited pid then begin
      d.alive <- false;
      failwith "Wl_serve.spawn: the daemon exited before answering a ping"
    end
    else if Clock.monotonic_s () > deadline then
      failwith "Wl_serve.spawn: the daemon did not answer a ping"
    else begin
      Unix.sleepf 0.0005;
      ready ()
    end
  in
  ready ();
  d

(* ------------------------------------------------------------------ *)
(* Client                                                              *)
(* ------------------------------------------------------------------ *)

(* Client-side wire accounting, filled only by the traced run. *)
type wire = {
  lock : Mutex.t;
  mutable encode_s : float;
  mutable decode_s : float;
  mutable wait_s : float;
  mutable bytes : int;
  mutable sent : string list;  (** client frames, for the server replay *)
  mutable received : Wire.server_msg list;
}

let new_wire () =
  { lock = Mutex.create (); encode_s = 0.0; decode_s = 0.0; wait_s = 0.0;
    bytes = 0; sent = []; received = [] }

let timed opts f = if opts.trace then Clock.timed f else (f (), 0.0)

let send opts w fd msg =
  let s, dt = timed opts (fun () -> Wire.encode_client msg) in
  Wire.write_frame fd s;
  if opts.trace then
    Mutex.protect w.lock (fun () ->
        w.encode_s <- w.encode_s +. dt;
        w.bytes <- w.bytes + String.length s + 4;
        w.sent <- s :: w.sent)

let recv opts w fd =
  let frame, waited = timed opts (fun () -> Wire.read_frame fd) in
  match frame with
  | Error _ -> failwith "Wl_serve.recv: the daemon closed the connection"
  | Ok s ->
    let msg, dt = timed opts (fun () -> Wire.decode_server s) in
    (match msg with
     | Error e -> failwith ("Wl_serve.recv: undecodable reply: " ^ e)
     | Ok (_, m) ->
       if opts.trace then
         Mutex.protect w.lock (fun () ->
             w.wait_s <- w.wait_s +. waited;
             w.decode_s <- w.decode_s +. dt;
             w.bytes <- w.bytes + String.length s + 4;
             w.received <- m :: w.received);
       m)

(* One batch, timed from sending it to receiving its Batch_done. *)
let batch opts w fd ~job ?manifest nets =
  let statuses = Array.make (List.length nets) None in
  let t0 = Clock.monotonic_s () in
  send opts w fd
    (Wire.Batch
       { Wire.job; spec; nets; deadline_s = None; want_tree = false; manifest });
  let rec drain () =
    match recv opts w fd with
    | Wire.Progress p when p.Wire.job = job ->
      statuses.(p.Wire.index) <- Some p.Wire.status;
      drain ()
    | Wire.Batch_done { job = j; summary; _ } when j = job -> summary
    | _ -> failwith ("Wl_serve.batch: unexpected reply in job " ^ job)
  in
  let summary = drain () in
  (t0, Clock.monotonic_s (), summary, statuses)

let stats fd =
  match call fd (Wire.Admin { job = "stats"; op = Wire.Stats }) with
  | Ok (Wire.Stats_reply { stats; _ }) -> stats
  | _ -> failwith "Wl_serve.stats: no stats reply"

let counters =
  [ ("cache.lru_hits", [ "cache"; "hits" ]);
    ("cache.lru_misses", [ "cache"; "misses" ]);
    ("cache.lru_evictions", [ "cache"; "evictions" ]);
    ("store.hits", [ "cache"; "store"; "hits" ]);
    ("store.misses", [ "cache"; "store"; "misses" ]);
    ("store.writes", [ "cache"; "store"; "writes" ]);
    ("store.errors", [ "cache"; "store"; "errors" ]);
    ("store.bytes_read", [ "cache"; "store"; "bytes_read" ]);
    ("store.bytes_written", [ "cache"; "store"; "bytes_written" ]);
    ("pool.submitted", [ "pool"; "submitted" ]);
    ("pool.completed", [ "pool"; "completed" ]);
    ("pool.failed", [ "pool"; "failed" ]);
    ("pool.cancelled", [ "pool"; "cancelled" ]);
    ("pool.timed_out", [ "pool"; "timed_out" ]) ]

let counter stats path =
  let rec go j = function
    | [] -> Option.value (Json.to_num j) ~default:0.0
    | k :: rest -> (match Json.member k j with Some v -> go v rest | None -> 0.0)
  in
  go stats path

(* Counter deltas of the daemon over [f]. *)
let with_deltas fd f =
  let before = stats fd in
  let r = f () in
  let after = stats fd in
  (r, List.map (fun (k, p) -> (k, counter after p -. counter before p)) counters)

(* ------------------------------------------------------------------ *)
(* Open loop                                                           *)
(* ------------------------------------------------------------------ *)

type route = {
  due : float;
  mutable sent_at : float;
  mutable got_at : float;
  mutable reply : Wire.server_msg option;
}

(* [reqs] (fresh, net) go out at [route_rate] per second whatever the
   replies are doing: warm ones on [warm_fd], fresh ones on [fresh_fd],
   so a miss being computed holds up only the fresh connection.  Frames
   are encoded before the clock starts; one reader per connection. *)
let open_loop opts w ~warm_fd ~fresh_fd ~deadline reqs =
  let frames =
    Array.mapi
      (fun i (fresh, net) ->
         let s, dt =
           timed opts (fun () ->
               Wire.encode_client
                 (Wire.Route
                    { Wire.job = string_of_int i; spec; net;
                      deadline_s = (if fresh then deadline else None);
                      want_tree = false }))
         in
         if opts.trace then begin
           w.encode_s <- w.encode_s +. dt;
           w.bytes <- w.bytes + String.length s + 4;
           w.sent <- s :: w.sent
         end;
         s)
      reqs
  in
  let fd_of fresh = if fresh then fresh_fd else warm_fd in
  let start = Clock.monotonic_s () +. 0.05 in
  let routes =
    Array.mapi
      (fun i _ ->
         { due = Stats.due ~start ~rate:route_rate i; sent_at = nan;
           got_at = nan; reply = None })
      reqs
  in
  let sender () =
    Array.iteri
      (fun i (fresh, _) ->
         let wait = routes.(i).due -. Clock.monotonic_s () in
         if wait > 0.0 then Unix.sleepf wait;
         Wire.write_frame (fd_of fresh) frames.(i);
         routes.(i).sent_at <- Clock.monotonic_s ())
      reqs
  in
  let reader fresh () =
    let expected = Array.fold_left (fun a (f, _) -> if f = fresh then a + 1 else a) 0 reqs in
    for _ = 1 to expected do
      let m = recv opts w (fd_of fresh) in
      let job =
        match m with
        | Wire.Reply { job; _ } | Wire.Refused { job; _ } -> job
        | _ -> failwith "Wl_serve.open_loop: unexpected reply"
      in
      match int_of_string_opt job with
      | Some i when i >= 0 && i < Array.length routes ->
        routes.(i).got_at <- Clock.monotonic_s ();
        routes.(i).reply <- Some m
      | _ -> failwith "Wl_serve.open_loop: reply for an unknown job"
    done
  in
  let failure = ref None in
  let guard f () = try f () with e -> failure := Some e in
  let threads =
    Thread.create (guard sender) ()
    :: List.map (fun fresh -> Thread.create (guard (reader fresh)) ()) [ false; true ]
  in
  List.iter Thread.join threads;
  Option.iter raise !failure;
  routes

(* ------------------------------------------------------------------ *)
(* The workload                                                        *)
(* ------------------------------------------------------------------ *)

let shift dx dy net = translate (Point.make dx dy) net

let metrics_equal (got : Metrics.t) (want : Metrics.t) =
  { got with Metrics.runtime = 0.0; tree = None }
  = { want with Metrics.runtime = 0.0; tree = None }

let run opts tally =
  let d = offset opts.seed in
  let store_dir = Filename.concat opts.run_dir "store" in
  (* Set-up: the netlists, generated [setup_reps] times, and a daemon
     start until ping answers, timed at each daemon start, probes
     started and stopped up front included. *)
  let nets, gen_s = repeat_timed setup_reps (fun () -> inputs opts.seed) in
  let n = List.length nets in
  let starts = ref [] in
  let start ~tag ~cache =
    let dm, dt = Clock.timed (fun () -> spawn opts ~tag ~cache ~store:store_dir) in
    starts := dt :: !starts;
    dm
  in
  for i = 1 to setup_reps do
    stop (start ~tag:(Printf.sprintf "probe%d" i) ~cache:store_lru)
  done;
  let rss = ref 0.0 and alloc = ref 0.0 in
  let retire dm =
    rss := Float.max !rss (peak_rss_mb (string_of_int dm.pid));
    stop dm;
    alloc := !alloc +. allocated_bytes dm
  in
  let w = new_wire () in
  let tr = Trace.create () in
  (* Replies to check afterwards: (job, net name, the net whose
     in-process result the reply must equal, expected status, reply). *)
  let replies = ref [] in
  let keep ~job refs statuses ~want =
    List.iteri
      (fun i (name, net) ->
         replies := (job, name, net, want i, statuses.(i)) :: !replies)
      refs
  in
  let waits = Hashtbl.create 8 in
  let covered = Hashtbl.create 8 in
  let add tbl phase v =
    Hashtbl.replace tbl phase (v +. Option.value (Hashtbl.find_opt tbl phase) ~default:0.0)
  in
  let phase_wall = Hashtbl.create 8 in
  let deltas = Hashtbl.create 8 in
  let record phase ~wall ~waited ~busy deltas_ =
    Hashtbl.replace phase_wall phase (wall :: Option.value (Hashtbl.find_opt phase_wall phase) ~default:[]);
    add waits phase waited;
    add covered phase busy;
    let old = Option.value (Hashtbl.find_opt deltas phase) ~default:[] in
    Hashtbl.replace deltas phase
      (List.map (fun (k, v) -> (k, v +. Option.value (List.assoc_opt k old) ~default:0.0)) deltas_)
  in
  (* [refs]: the unmoved nets when [nets] are moved copies of them. *)
  let run_batch fd phase ~job ?manifest ?(refs = []) ~want nets =
    let wait0 = w.wait_s and busy0 = w.encode_s +. w.wait_s +. w.decode_s in
    let (t0, t1, summary, statuses), dl =
      with_deltas fd (fun () -> batch opts w fd ~job ?manifest nets)
    in
    let wall = t1 -. t0 in
    if opts.trace then
      ignore
        (Trace.record tr ~req:(-1) ~start:t0 ~stop:t1
           ~counts:[ ("nets", float_of_int (List.length nets)) ]
           ("serve." ^ phase));
    record phase ~wall ~waited:(w.wait_s -. wait0)
      ~busy:(w.encode_s +. w.wait_s +. w.decode_s -. busy0) dl;
    keep ~job (if refs = [] then nets else refs) statuses ~want;
    check tally (summary.Wire.total = List.length nets && summary.Wire.failed = 0)
      (phase ^ ": batch summary reports failures");
    (summary, dl)
  in
  (* Daemon A: cold, warm, open loop, ECO. *)
  let a = start ~tag:"a" ~cache:4096 in
  let fd = connect a.socket in
  let fd2 = connect a.socket in
  (* Cold: the netlist, then copies of it moved by (c, c), so every
     pass misses; a moved copy must route like the net itself. *)
  for c = 0 to cold_passes - 1 do
    let s, _ =
      run_batch fd "cold" ~job:(Printf.sprintf "cold%d" c) ~refs:nets
        ~want:(fun _ -> `Miss)
        (List.map (fun (name, net) -> (name, shift c c net)) nets)
    in
    check tally (s.Wire.routed = n) "cold: not every net was computed"
  done;
  for p = 1 to warm_passes do
    let s, _ =
      run_batch fd "warm" ~job:(Printf.sprintf "warm%d" p) ~want:(fun _ -> `Hit) nets
    in
    check tally (s.Wire.hits = n) "warm: not every net was a hit"
  done;
  (* Open loop: warm draws from the netlist, and every [fresh_every]-th
     request one [fresh_sinks]-sink net of it moved to a place it has
     never been ([first] numbers the moves).  Fresh requests copy one
     net so that they cost the same: the heavy tail of the netlist is the
     cold phase's to measure, and here it would queue fresh requests
     behind each other and make the p99 a matter of luck. *)
  let net_arr = Array.of_list (List.map snd nets) in
  let fresh_base =
    match List.find_opt (fun (_, net) -> Net.n_sinks net = fresh_sinks) nets with
    | Some (_, net) -> net
    | None -> net_arr.(0)
  in
  let rng = Random.State.make [| opts.seed; 7 |] in
  let count = max min_routes (int_of_float (route_rate *. opts.seconds *. 0.3)) in
  let route_phase ~first ~deadline =
    let reqs =
      Array.init count (fun i ->
          if is_fresh i then
            let k = i / fresh_every in
            (true, shift 0 (first + k) fresh_base)
          else (false, net_arr.(Random.State.int rng n)))
    in
    let routes, dl =
      with_deltas fd (fun () -> open_loop opts w ~warm_fd:fd ~fresh_fd:fd2 ~deadline reqs)
    in
    (reqs, routes, dl)
  in
  let routed = route_phase ~first:1 ~deadline:(Some route_deadline_s) in
  let _, _, route_deltas = routed in
  Hashtbl.replace deltas "route" route_deltas;
  (* Without a deadline a fresh route is awaited with Pool.await, which
     computes it on the connection's own thread when the worker has not
     taken it yet; the traced run measures what that does to the other
     connection. *)
  let helped =
    if opts.trace then begin
      let ((_, _, dl) as r) = route_phase ~first:(count + 1) ~deadline:None in
      Hashtbl.replace deltas "route_nodeadline" dl;
      Some r
    end
    else None
  in
  (* ECO: every fourth net moved by one more grid step each pass, so
     each pass re-routes the same work. *)
  let manifest = List.map (fun (name, net) -> (name, Net_io.fingerprint net)) nets in
  let perturbed = Array.init n (fun i -> i mod 4 = 0) in
  let changed = Array.fold_left (fun a b -> if b then a + 1 else a) 0 perturbed in
  for p = 1 to eco_passes do
    let eco_nets =
      List.mapi (fun i (name, net) -> (name, if perturbed.(i) then shift p 0 net else net)) nets
    in
    let s, _ =
      run_batch fd "eco" ~job:(Printf.sprintf "eco%d" p) ~manifest ~refs:nets
        ~want:(fun i -> if perturbed.(i) then `Miss else `Unchanged)
        eco_nets
    in
    check tally
      (s.Wire.routed = changed && s.Wire.unchanged = n - changed)
      "eco: did not route exactly the moved nets"
  done;
  Unix.close fd;
  Unix.close fd2;
  retire a;
  (* Daemon B: the store phase. *)
  let b = start ~tag:"b" ~cache:store_lru in
  let fd = connect b.socket in
  for p = 1 to store_passes do
    let s, dl =
      run_batch fd "store" ~job:(Printf.sprintf "store%d" p) ~want:(fun _ -> `Hit) nets
    in
    check tally (s.Wire.hits = n) "store: not every net was a hit";
    check tally (List.assoc "pool.submitted" dl = 0.0)
      "store: the daemon submitted pool work"
  done;
  Unix.close fd;
  retire b;
  (* Replays over what the run captured: the server-side codec, the
     request key, and Store.find over the store directory. *)
  let server_codec_s, key_s, find_s =
    if not opts.trace then (0.0, 0.0, 0.0)
    else begin
      let (), codec =
        Clock.timed (fun () ->
            List.iter (fun s -> ignore (Wire.decode_client s)) w.sent;
            List.iter (fun m -> ignore (Wire.encode_server m)) w.received)
      in
      let keys, key_s =
        Clock.timed (fun () -> List.map (fun (_, net) -> Wire.request_key spec net) nets)
      in
      let store = Merlin_serve.Store.open_dir store_dir in
      let found, find_s =
        Clock.timed (fun () ->
            List.for_all (fun k -> Option.is_some (Merlin_serve.Store.find store k)) keys)
      in
      check tally found "store replay: a key is missing from the store";
      (codec, key_s, find_s)
    end
  in
  (* Correctness: every reply against in-process Flows.run. *)
  let reference = Hashtbl.create 1024 in
  let expected net =
    let key = Net_io.fingerprint net in
    match Hashtbl.find_opt reference key with
    | Some m -> m
    | None ->
      let m = Flows.run spec net in
      check tally (tree_ok net m) ("in-process Flows.run tree fails on " ^ net.Net.name);
      let m = Flows.wire_metrics m in
      Hashtbl.replace reference key m;
      m
  in
  let cold = ref [] and miss_s = ref 0.0 in
  List.iter
    (fun (job, name, net, want, status) ->
       let ok =
         match (want, status) with
         | `Unchanged, Some Wire.Unchanged -> true
         | `Miss, Some (Wire.Routed { cached = Wire.Miss; metrics })
         | `Hit, Some (Wire.Routed { cached = Wire.Hit; metrics }) ->
           if job = "cold0" then cold := metrics :: !cold;
           if want = `Miss then miss_s := !miss_s +. metrics.Metrics.runtime;
           metrics_equal metrics (expected net)
         | _ -> false
       in
       check tally ok (job ^ " " ^ name ^ ": reply differs from in-process Flows.run"))
    (List.rev !replies);
  let late = ref [] and overhead = ref [] in
  let check_routes tag (reqs, routes, _) =
    let latencies = ref [] in
    Array.iteri
      (fun i r ->
         let fresh, net = reqs.(i) in
         let ok =
           match r.reply with
           | Some (Wire.Reply { cached; metrics; _ }) ->
             if cached = Wire.Miss then begin
               miss_s := !miss_s +. metrics.Metrics.runtime;
               overhead := (r.got_at -. r.due -. metrics.Metrics.runtime) :: !overhead
             end;
             (cached = Wire.Miss) = fresh && metrics_equal metrics (expected net)
           | _ -> false
         in
         check tally ok (Printf.sprintf "%s %d: reply differs from in-process Flows.run" tag i);
         latencies := (r.got_at -. r.due) *. 1000.0 :: !latencies;
         late := Stats.lateness ~due:r.due ~sent:r.sent_at *. 1000.0 :: !late)
      routes;
    let tail = Stats.tail !latencies in
    let p99 =
      match tail.Stats.p99 with
      | Some v -> v
      | None ->
        check tally false (tag ^ ": too few samples for a p99");
        nan
    in
    (tail, p99, !latencies)
  in
  let tail, p99, latencies = check_routes "route" routed in
  let helped_routes = helped in
  let helped = Option.map (check_routes "route_nodeadline") helped in
  let cold_metrics = !cold in
  let walls phase = Option.value (Hashtbl.find_opt phase_wall phase) ~default:[] in
  let batch_s phase = Stats.median (walls phase) in
  let rate phase = float_of_int n /. batch_s phase in
  let phases = [ "cold"; "warm"; "eco"; "store" ] in
  let setup_s = gen_s +. Stats.median !starts in
  let end_to_end =
    [ ("setup_s", setup_s, "s");
      ("wall_s", sum batch_s phases, "s");
      ("net_ms", tail.Stats.p50, "ms");
      ("delay_ps", sum (fun (m : Metrics.t) -> m.Metrics.delay) cold_metrics, "ps");
      ("area", sum (fun (m : Metrics.t) -> m.Metrics.area) cold_metrics, "1000lambda2");
      ("alloc_gb", !alloc /. 1e9, "GB");
      ("peak_rss_mb", !rss, "MiB") ]
  in
  let total_delta k =
    Hashtbl.fold (fun _ dl acc -> acc +. Option.value (List.assoc_opt k dl) ~default:0.0) deltas 0.0
  in
  let phase_delta phase k =
    match Hashtbl.find_opt deltas phase with
    | Some dl -> Option.value (List.assoc_opt k dl) ~default:0.0
    | None -> 0.0
  in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  let per_layer =
    List.map (fun p -> (p ^ "_nets_per_s", rate p, "1/s")) phases
    @ [ ("route_p50_ms", tail.Stats.p50, "ms");
        ("route_p99_ms", p99, "ms");
        ("wire.encode_s", w.encode_s, "s");
      ("wire.decode_s", w.decode_s, "s");
      ("wire.frame_bytes", float_of_int w.bytes, "B");
      ("wire.server_codec_s", server_codec_s, "s");
      ("wire.key_s", key_s, "s") ]
    @ List.map
        (fun p -> ("serve." ^ p ^ ".wait_s", Option.value (Hashtbl.find_opt waits p) ~default:0.0, "s"))
        phases
    @ [ ("serve.miss_compute_s", !miss_s, "s");
        ("serve.overhead_ms",
         (match !overhead with [] -> 0.0 | o -> Stats.median o *. 1000.0),
         "ms") ]
    @ List.map
        (fun (k, _) ->
           (k, total_delta k, if String.ends_with ~suffix:"bytes_read" k || String.ends_with ~suffix:"bytes_written" k then "B" else "count"))
        counters
    @ [ ("cache.hit_ratio",
         ratio (total_delta "cache.lru_hits")
           (total_delta "cache.lru_hits" +. total_delta "cache.lru_misses"),
         "ratio");
        ("store.find_s", find_s, "s");
        ("eco.routed", phase_delta "eco" "pool.submitted", "count");
        ("eco.unchanged", float_of_int ((n - changed) * eco_passes), "count");
        ("loadgen.late_p99_ms", Stats.percentile ~p:0.99 !late, "ms") ]
    @ (match helped with
       | Some (t, p99, _) ->
         [ ("route.nodeadline_p50_ms", t.Stats.p50, "ms");
           ("route.nodeadline_p99_ms", p99, "ms") ]
       | None -> [])
    @ List.map
        (fun p ->
           let wall = List.fold_left ( +. ) 0.0 (walls p) in
           ("cover." ^ p, ratio (Option.value (Hashtbl.find_opt covered p) ~default:0.0) wall, "ratio"))
        phases
  in
  let details =
    Json.Obj
      [ ("nets", Json.Num (float_of_int n));
        ("offset", Json.Str (Point.to_string d));
        ("routes", Json.Num (float_of_int tail.Stats.samples));
        ("route_rate", Json.Num route_rate);
        ("fresh_share", Json.Num (1.0 /. float_of_int fresh_every));
        ("route_ms",
         Json.Obj
           (List.map
              (fun p -> (Printf.sprintf "p%g" (100.0 *. p), Json.Num (Stats.percentile ~p latencies)))
              [ 0.5; 0.9; 0.99; 1.0 ]));
        ("late_ms",
         Json.Obj
           (List.map
              (fun p -> (Printf.sprintf "p%g" (100.0 *. p), Json.Num (Stats.percentile ~p !late)))
              [ 0.5; 0.99; 1.0 ]));
        ("eco_moved", Json.Num (float_of_int changed));
        ("phase_walls",
         Json.Obj
           (List.map
              (fun p -> (p, Json.List (List.map (fun x -> Json.Num x) (List.rev (walls p)))))
              phases));
        ("phase_deltas",
         Json.Obj
           (Hashtbl.fold
              (fun p dl acc -> (p, Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) dl)) :: acc)
              deltas []
           |> List.sort compare)) ]
  in
  if opts.trace then begin
    let spans name (_, routes, _) =
      Array.iteri
        (fun i r -> ignore (Trace.record tr ~req:i ~start:r.due ~stop:r.got_at name))
        routes
    in
    spans "serve.route" routed;
    Option.iter (spans "serve.route_nodeadline") helped_routes
  end;
  (end_to_end, (if opts.trace then per_layer else []), details, [ tr ])
