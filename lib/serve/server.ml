(* The routing-service daemon.

   One accept-loop thread per listener (Unix-domain socket always, TCP
   optionally) and one thread per connection; compute happens on the
   shared {!Merlin_exec.Pool} via {!Scheduler}, so connection threads
   only block, they never burn a domain.  A connection thread owns its
   socket exclusively — requests on one connection are answered in
   order, concurrency comes from multiple connections.  Within a batch
   the scheduler's worker team emits progress frames concurrently, so
   each connection carries an emitter whose mutex serialises frame
   writes and latches the first write failure ([dead]): once the peer
   is gone, remaining batch items cancel instead of computing for a
   broken pipe.

   The cache is the two-tier {!Cache}: LRU memory in front and, when
   [store_dir] is set, a persistent content-addressed {!Store} behind
   it holding {!Merlin_report.Metrics} blobs.  Values are cached with
   the tree attached and stripped per-reply, so one cache entry serves
   both tree-less and [want_tree] requests — and a restarted daemon
   answers repeat traffic from disk with zero pool submissions.

   Error discipline: every decodable defect in a request produces a
   structured [Refused] reply on the same connection; the socket only
   dies on framing damage we cannot resynchronise from (oversized or
   truncated frames).  A connection-level exception closes that
   connection and nothing else.

   Drain/shutdown: [Drain] flips the server to refusing new routes and
   batches ([Refused Draining]) and cancels the queued remainder of
   in-flight batches, while stats/ping keep answering and in-flight
   computes finish.  [Shutdown] drains and additionally wakes {!wait},
   which closes the listeners, waits for the active-request count to
   reach zero, joins the accept threads and shuts the pool down. *)

module Pool = Merlin_exec.Pool
module Clock = Merlin_exec.Clock
module Flows = Merlin_flows.Flows
module Json = Merlin_report.Json
module Metrics = Merlin_report.Metrics
module Net_io = Merlin_net.Net_io

type config = {
  socket_path : string;
  tcp : (string * int) option;
  domains : int option;
  cache_capacity : int;
  store_dir : string option;
  default_deadline_s : float option;
  max_frame : int;
}

let default_config ~socket_path =
  { socket_path;
    tcp = None;
    domains = None;
    cache_capacity = 256;
    store_dir = None;
    default_deadline_s = None;
    max_frame = Wire.default_max_frame }

type t = {
  cfg : config;
  sched : Metrics.t Scheduler.t;
  lock : Mutex.t;
  cond : Condition.t;
  listeners : Unix.file_descr list;  (* closed by [wait], after the joins *)
  tcp_fd : Unix.file_descr option;
  mutable accept_threads : Thread.t list;
  mutable draining : bool;
  mutable stopping : bool;
  mutable active : int;       (* route requests / batches being computed *)
  mutable connections : int;  (* accepted so far *)
  mutable requests : int;     (* frames dispatched *)
  mutable batches : int;      (* batch jobs accepted *)
  mutable refused : int;      (* error replies sent *)
  started_at : float;
}

(* Per-connection frame writer.  [em] serialises writes (batch workers
   emit progress concurrently with each other); [dead] latches the
   first write failure so the rest of the job cancels instead of
   writing into a broken pipe. *)
type emitter = {
  fd : Unix.file_descr;
  em : Mutex.t;
  mutable dead : bool;
}

(* Cached values cross the store as canonical metrics JSON; a blob that
   no longer decodes (schema drift) reads as a miss and is rewritten. *)
let metrics_codec : Metrics.t Cache.codec =
  { Cache.encode = (fun m -> Json.to_string (Metrics.to_json m));
    decode =
      (fun text ->
         match Json.of_string text with
         | j -> (
           match Metrics.of_json j with Ok m -> Some m | Error _ -> None)
         | exception Json.Parse_error _ -> None) }

(* Entries are cached with the tree attached; replies strip it unless
   asked, so one entry serves both shapes of request. *)
let reply_metrics ~want_tree (m : Metrics.t) =
  if want_tree then m else { m with Metrics.tree = None }

(* ------------------------------------------------------------------ *)
(* Telemetry                                                           *)
(* ------------------------------------------------------------------ *)

let int_field n i = (n, Json.Num (float_of_int i))

let stats_json t =
  let server, cache, pool =
    Mutex.protect t.lock (fun () ->
        ( Json.Obj
            [ int_field "connections" t.connections;
              int_field "requests" t.requests;
              int_field "batches" t.batches;
              int_field "refused" t.refused;
              int_field "active" t.active;
              ("draining", Json.Bool t.draining);
              ("uptime_s", Json.Num (Clock.elapsed_s t.started_at)) ],
          Scheduler.cache_stats t.sched,
          Pool.stats (Scheduler.pool t.sched) ))
  in
  let mem = cache.Cache.memory in
  let cache_json =
    Json.Obj
      ([ int_field "capacity" mem.Lru.capacity;
         int_field "size" mem.Lru.size;
         int_field "hits" mem.Lru.hits;
         int_field "misses" mem.Lru.misses;
         int_field "evictions" mem.Lru.evictions ]
      @
      match cache.Cache.store with
      | None -> []
      | Some s ->
        [ ("store",
           Json.Obj
             [ int_field "hits" s.Store.hits;
               int_field "misses" s.Store.misses;
               int_field "writes" s.Store.writes;
               int_field "errors" s.Store.errors;
               int_field "bytes_read" s.Store.bytes_read;
               int_field "bytes_written" s.Store.bytes_written ]) ])
  in
  let pool_json =
    Json.Obj
      [ int_field "domains" pool.Pool.domains;
        int_field "submitted" pool.Pool.submitted;
        int_field "completed" pool.Pool.completed;
        int_field "failed" pool.Pool.failed;
        int_field "cancelled" pool.Pool.cancelled;
        int_field "timed_out" pool.Pool.timed_out ]
  in
  Json.Obj [ ("server", server); ("cache", cache_json); ("pool", pool_json) ]

(* ------------------------------------------------------------------ *)
(* Frame emission                                                      *)
(* ------------------------------------------------------------------ *)

let emit_frame em payload =
  Mutex.protect em.em (fun () ->
      if not em.dead then
        (* The emitter lock exists to serialise frame writes on this
           connection; only this connection's frames wait behind a slow
           peer, and a dead peer latches [dead] instead of blocking. *)
        match Wire.write_frame em.fd payload (* check: blocking-ok *) with
        | () -> ()
        | exception Unix.Unix_error _ -> em.dead <- true)

let send t em (reply : Wire.server_msg) =
  (match reply with
   | Wire.Refused _ ->
     Mutex.protect t.lock (fun () -> t.refused <- t.refused + 1)
   | Wire.Reply _ | Wire.Progress _ | Wire.Batch_done _ | Wire.Stats_reply _
   | Wire.Pong _ | Wire.Admin_ok _ -> ());
  emit_frame em (Wire.encode_server reply)

(* ------------------------------------------------------------------ *)
(* Single-route dispatch                                               *)
(* ------------------------------------------------------------------ *)

let route t (r : Wire.request) =
  let refused =
    Mutex.protect t.lock (fun () ->
        if t.draining then true
        else begin
          t.active <- t.active + 1;
          false
        end)
  in
  if refused then
    Wire.Refused
      { job = r.Wire.job;
        kind = Wire.Draining;
        message = "server is draining; not accepting new routes" }
  else begin
    let finish () =
      Mutex.protect t.lock (fun () ->
          t.active <- t.active - 1;
          Condition.broadcast t.cond)
    in
    let key = Wire.request_key r.Wire.spec r.Wire.net in
    let deadline_s =
      match r.Wire.deadline_s with
      | Some _ as d -> d
      | None -> t.cfg.default_deadline_s
    in
    let spec = r.Wire.spec and net = r.Wire.net in
    (* Hand the job the scheduler's own pool: the hierarchical flow
       farms its clusters as nested pool tasks (helping [Pool.await]
       makes nested submit deadlock-free); flat flows ignore it. *)
    let pool = Scheduler.pool t.sched in
    let outcome =
      match
        (* Flows.run's only nondeterminism is its runtime telemetry
           (Clock.timed); the cached payload is replay-identical bar
           the runtime field, which every comparison zeroes. *)
        Scheduler.schedule t.sched ~key ?deadline_s (fun () ->
            Flows.wire_metrics ~with_tree:true
              (Flows.run ~pool spec net (* check: nondet-ok *)))
      with
      | o -> finish (); o
      | exception e -> finish (); raise e
    in
    match outcome with
    | Scheduler.Done { value; cached } ->
      Wire.Reply
        { job = r.Wire.job;
          cached;
          metrics = reply_metrics ~want_tree:r.Wire.want_tree value }
    | Scheduler.Timed_out budget ->
      Wire.Refused
        { job = r.Wire.job;
          kind = Wire.Timeout;
          message =
            Printf.sprintf "deadline of %gs exceeded; result abandoned" budget }
    | Scheduler.Failed (Flows.Infeasible msg) ->
      Wire.Refused { job = r.Wire.job; kind = Wire.Infeasible; message = msg }
    | Scheduler.Failed e ->
      Wire.Refused
        { job = r.Wire.job;
          kind = Wire.Internal;
          message = Printexc.to_string e }
  end

(* ------------------------------------------------------------------ *)
(* Batch dispatch                                                      *)
(* ------------------------------------------------------------------ *)

let status_of_outcome ~want_tree (o : Metrics.t Scheduler.item_outcome) =
  match o with
  | Scheduler.Item (Scheduler.Done { value; cached }) ->
    Wire.Routed { cached; metrics = reply_metrics ~want_tree value }
  | Scheduler.Item (Scheduler.Timed_out budget) ->
    Wire.Net_failed
      { kind = Wire.Timeout;
        message =
          Printf.sprintf "deadline of %gs exceeded; result abandoned" budget }
  | Scheduler.Item (Scheduler.Failed (Flows.Infeasible msg)) ->
    Wire.Net_failed { kind = Wire.Infeasible; message = msg }
  | Scheduler.Item (Scheduler.Failed e) ->
    Wire.Net_failed { kind = Wire.Internal; message = Printexc.to_string e }
  | Scheduler.Item_cancelled -> Wire.Cancelled

(* One batch: ECO-partition against the manifest, fan the rest over the
   pool via [Scheduler.run_batch], stream a [Progress] frame as each
   net settles, close with a [Batch_done] summary.  The summary is
   computed from the per-index status table, not from arrival order, so
   it is deterministic for a given set of outcomes at any pool size. *)
let handle_batch t em (b : Wire.batch) =
  let job = b.Wire.job in
  let refused =
    Mutex.protect t.lock (fun () ->
        if t.draining then true
        else begin
          t.active <- t.active + 1;
          t.batches <- t.batches + 1;
          false
        end)
  in
  if refused then
    send t em
      (Wire.Refused
         { job;
           kind = Wire.Draining;
           message = "server is draining; not accepting new routes" })
  else
    Fun.protect
      ~finally:(fun () ->
        Mutex.protect t.lock (fun () ->
            t.active <- t.active - 1;
            Condition.broadcast t.cond))
      (fun () ->
        let started = Clock.monotonic_s () in
        let spec = b.Wire.spec in
        let want_tree = b.Wire.want_tree in
        let deadline_s =
          match b.Wire.deadline_s with
          | Some _ as d -> d
          | None -> t.cfg.default_deadline_s
        in
        let nets = Array.of_list b.Wire.nets in
        let n = Array.length nets in
        let statuses = Array.make n None in
        let seq = ref 0 in
        let emit index name status =
          Mutex.protect em.em (fun () ->
              statuses.(index) <- Some status;
              if not em.dead then begin
                incr seq;
                let payload =
                  Wire.encode_server
                    (Wire.Progress { job; seq = !seq; index; name; status })
                in
                (* Serialised per-connection write; see [emit_frame]. *)
                match Wire.write_frame em.fd payload (* check: blocking-ok *) with
                | () -> ()
                | exception Unix.Unix_error _ -> em.dead <- true
              end)
        in
        (* ECO partition: a net whose fingerprint still matches the
           manifest is answered [Unchanged] up front, before any pool
           work; everything else routes. *)
        let fps = Hashtbl.create 16 in
        (match b.Wire.manifest with
         | None -> ()
         | Some entries ->
           List.iter (fun (name, fp) -> Hashtbl.replace fps name fp) entries);
        let to_route = ref [] in
        Array.iteri
          (fun i (name, net) ->
             let unchanged =
               match Hashtbl.find_opt fps name with
               | Some fp -> String.equal fp (Net_io.fingerprint net)
               | None -> false
             in
             if unchanged then emit i name Wire.Unchanged
             else to_route := (i, name, net) :: !to_route)
          nets;
        let to_route = Array.of_list (List.rev !to_route) in
        let pool = Scheduler.pool t.sched in
        let items =
          Array.to_list
            (Array.map
               (fun (_, _, net) ->
                  ( Wire.request_key spec net,
                    fun () ->
                      (* Same replay-identical-bar-runtime argument as
                         the single-route path. *)
                      Flows.wire_metrics ~with_tree:true
                        (Flows.run ~pool spec net) ))
               to_route)
        in
        (* Queued nets cancel on client disconnect or drain; in-flight
           ones finish (their result is still worth caching). *)
        let cancelled () =
          Mutex.protect em.em (fun () -> em.dead)
          || Mutex.protect t.lock (fun () -> t.draining)
        in
        let on_item i outcome =
          let index, name, _ = to_route.(i) in
          emit index name (status_of_outcome ~want_tree outcome)
        in
        Scheduler.run_batch t.sched ?deadline_s ~cancelled ~on_item items;
        let routed = ref 0 and hits = ref 0 and unchanged = ref 0 in
        let failed = ref 0 and cancelled_n = ref 0 in
        Array.iter
          (fun st ->
             match st with
             | Some (Wire.Routed { cached = Wire.Miss; _ }) -> incr routed
             | Some (Wire.Routed { cached = Wire.Hit; _ }) -> incr hits
             | Some Wire.Unchanged -> incr unchanged
             | Some (Wire.Net_failed _) -> incr failed
             | Some Wire.Cancelled | None -> incr cancelled_n)
          statuses;
        let summary =
          { Wire.total = n;
            routed = !routed;
            hits = !hits;
            unchanged = !unchanged;
            failed = !failed;
            cancelled = !cancelled_n;
            wall_s = Clock.elapsed_s started }
        in
        Mutex.protect em.em (fun () ->
            incr seq;
            if not em.dead then
              let payload =
                Wire.encode_server
                  (Wire.Batch_done { job; seq = !seq; summary })
              in
              (* Serialised per-connection write; see [emit_frame]. *)
              match Wire.write_frame em.fd payload (* check: blocking-ok *) with
              | () -> ()
              | exception Unix.Unix_error _ -> em.dead <- true))

(* ------------------------------------------------------------------ *)
(* Connection handling                                                 *)
(* ------------------------------------------------------------------ *)

let request_stop t =
  Mutex.protect t.lock (fun () ->
      t.draining <- true;
      t.stopping <- true;
      Condition.broadcast t.cond)

let dispatch t em (msg : Wire.client_msg) =
  match msg with
  | Wire.Route r -> send t em (route t r)
  | Wire.Batch b -> handle_batch t em b
  | Wire.Admin { job; op } -> (
    match op with
    | Wire.Stats ->
      send t em (Wire.Stats_reply { job; stats = stats_json t })
    | Wire.Ping -> send t em (Wire.Pong { job })
    | Wire.Drain ->
      Mutex.protect t.lock (fun () -> t.draining <- true);
      send t em (Wire.Admin_ok { job; what = "draining" })
    | Wire.Shutdown ->
      Mutex.protect t.lock (fun () -> t.draining <- true);
      send t em (Wire.Admin_ok { job; what = "shutdown" }))

let handle_connection t fd =
  let em = { fd; em = Mutex.create (); dead = false } in
  let rec loop () =
    match Wire.read_frame ~max_frame:t.cfg.max_frame fd with
    | Error Wire.Closed -> ()
    | Error Wire.Truncated -> ()  (* peer died mid-frame; nothing to say *)
    | Error (Wire.Oversized n) ->
      (* The stream cannot be resynchronised past an oversized frame:
         refuse loudly, then close. *)
      send t em
        (Wire.Refused
           { job = "";
             kind = Wire.Bad_request;
             message =
               Printf.sprintf "frame of %d bytes exceeds the %d-byte limit" n
                 t.cfg.max_frame })
    | Ok payload ->
      Mutex.protect t.lock (fun () -> t.requests <- t.requests + 1);
      (match Wire.decode_client payload with
       | Error msg ->
         send t em
           (Wire.Refused { job = ""; kind = Wire.Bad_request; message = msg });
         loop ()
       | Ok msg ->
         dispatch t em msg;
         (match msg with
          | Wire.Admin { op = Wire.Shutdown; _ } -> request_stop t
          | _ -> ());
         loop ())
  in
  (match loop () with
   | () -> ()
   | exception e ->
     (* A broken connection must never take the daemon down. *)
     Logs.debug (fun m ->
         m "serve: connection error: %s" (Printexc.to_string e)));
  try Unix.close fd with Unix.Unix_error _ -> ()

(* Closing an fd does not wake a thread blocked in accept(2) on Linux,
   so the accept loop polls the stop flag through a short select
   timeout instead of blocking; the listener is only closed by [wait],
   after this thread is joined. *)
let accept_loop t listener =
  let stopping () = Mutex.protect t.lock (fun () -> t.stopping) in
  let rec loop () =
    if stopping () then ()
    else
      match Unix.select [ listener ] [] [] 0.2 with
      | [], _, _ -> loop ()
      | _ :: _, _, _ -> (
        match Unix.accept ~cloexec:true listener with
        | fd, _ ->
          Mutex.protect t.lock (fun () -> t.connections <- t.connections + 1);
          ignore (Thread.create (fun () -> handle_connection t fd) ());
          loop ()
        | exception
            Unix.Unix_error
              ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ECONNABORTED), _, _)
          ->
          loop ()
        | exception Unix.Unix_error _ ->
          (* The listener is unusable; nothing left to accept. *)
          ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let listen_unix path =
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.bind fd (Unix.ADDR_UNIX path);
     Unix.listen fd 64
   with e -> (try Unix.close fd with Unix.Unix_error _ -> ()); raise e);
  fd

let listen_tcp host port =
  let addr =
    try Unix.inet_addr_of_string host
    with Failure _ ->
      failwith (Printf.sprintf "Server.listen_tcp: invalid address %S" host)
  in
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt fd Unix.SO_REUSEADDR true;
     Unix.bind fd (Unix.ADDR_INET (addr, port));
     Unix.listen fd 64
   with e -> (try Unix.close fd with Unix.Unix_error _ -> ()); raise e);
  fd

let start cfg =
  (* A peer closing mid-write must surface as EPIPE, not kill us. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  (* Open the store before anything that needs tearing down: a bad
     store path fails the whole start cleanly. *)
  let store =
    match cfg.store_dir with
    | None -> None
    | Some dir -> Some (Store.open_dir dir, metrics_codec)
  in
  let cache = Cache.create ?store ~capacity:cfg.cache_capacity () in
  let pool = Pool.create ?domains:cfg.domains () in
  let sched = Scheduler.create ~cache pool in
  let unix_fd =
    match listen_unix cfg.socket_path with
    | fd -> fd
    | exception e ->
      Pool.shutdown pool;
      raise e
  in
  let tcp_fd =
    match cfg.tcp with
    | None -> None
    | Some (host, port) -> (
      match listen_tcp host port with
      | fd -> Some fd
      | exception e ->
        (try Unix.close unix_fd with Unix.Unix_error _ -> ());
        Pool.shutdown pool;
        raise e)
  in
  let listeners =
    unix_fd :: (match tcp_fd with None -> [] | Some fd -> [ fd ])
  in
  let t =
    { cfg;
      sched;
      lock = Mutex.create ();
      cond = Condition.create ();
      listeners;
      tcp_fd;
      accept_threads = [];
      draining = false;
      stopping = false;
      active = 0;
      connections = 0;
      requests = 0;
      batches = 0;
      refused = 0;
      started_at = Clock.monotonic_s () }
  in
  t.accept_threads <-
    List.map (fun fd -> Thread.create (fun () -> accept_loop t fd) ()) listeners;
  t

let wait t =
  Mutex.protect t.lock (fun () ->
      while not t.stopping do
        Condition.wait t.cond t.lock
      done;
      while t.active > 0 do
        Condition.wait t.cond t.lock
      done);
  List.iter Thread.join t.accept_threads;
  List.iter
    (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
    t.listeners;
  Pool.shutdown (Scheduler.pool t.sched);
  try Unix.unlink t.cfg.socket_path with Unix.Unix_error _ -> ()

let stop t =
  request_stop t;
  wait t

(* Port 0 in [config.tcp] asks the kernel for an ephemeral port; this
   reports the one actually bound. *)
let tcp_port t =
  match t.tcp_fd with
  | None -> None
  | Some fd -> (
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, port) -> Some port
    | Unix.ADDR_UNIX _ -> None)
