(* Unit tests for the serving layer: LRU and two-tier cache behaviour,
   persistent-store crash safety, wire-protocol round trips for every
   v2 frame kind (qcheck), v1 compatibility decoding and the
   cache-key/fingerprint semantics. *)

open Merlin_tech
open Merlin_net
module Flows = Merlin_flows.Flows
module Json = Merlin_report.Json
module Metrics = Merlin_report.Metrics
module Wire = Merlin_serve.Wire
module Lru = Merlin_serve.Lru
module Store = Merlin_serve.Store
module Cache = Merlin_serve.Cache
module Scheduler = Merlin_serve.Scheduler
module Pool = Merlin_exec.Pool

let tech = Tech.default
let buffers = Buffer_lib.default

let qtest ?(count = 200) name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb prop)

(* ---------------- LRU ---------------- *)

let test_lru_basic () =
  let c = Lru.create ~capacity:4 in
  Alcotest.(check (option int)) "miss" None (Lru.find c "a");
  Lru.add c "a" 1;
  Lru.add c "b" 2;
  Alcotest.(check (option int)) "hit a" (Some 1) (Lru.find c "a");
  Alcotest.(check (option int)) "hit b" (Some 2) (Lru.find c "b");
  Lru.add c "a" 10;
  Alcotest.(check (option int)) "refresh value" (Some 10) (Lru.find c "a");
  let s = Lru.stats c in
  Alcotest.(check int) "size" 2 s.Lru.size;
  Alcotest.(check int) "hits" 3 s.Lru.hits;
  Alcotest.(check int) "misses" 1 s.Lru.misses;
  Alcotest.(check int) "evictions" 0 s.Lru.evictions

let test_lru_evicts_least_recent () =
  let c = Lru.create ~capacity:2 in
  Lru.add c "a" 1;
  Lru.add c "b" 2;
  (* Touch a so b becomes the LRU entry. *)
  Alcotest.(check (option int)) "touch a" (Some 1) (Lru.find c "a");
  Lru.add c "c" 3;
  Alcotest.(check (option int)) "b evicted" None (Lru.find c "b");
  Alcotest.(check (option int)) "a kept" (Some 1) (Lru.find c "a");
  Alcotest.(check (option int)) "c kept" (Some 3) (Lru.find c "c");
  Alcotest.(check int) "one eviction" 1 (Lru.stats c).Lru.evictions

let test_lru_capacity_one () =
  let c = Lru.create ~capacity:1 in
  Lru.add c "a" 1;
  Lru.add c "b" 2;
  Alcotest.(check (option int)) "a evicted" None (Lru.find c "a");
  Alcotest.(check (option int)) "b kept" (Some 2) (Lru.find c "b");
  Alcotest.check_raises "capacity 0 rejected"
    (Invalid_argument "Lru.create: capacity must be >= 1") (fun () ->
      ignore (Lru.create ~capacity:0))

(* ---------------- store & two-tier cache ---------------- *)

let fresh_dir =
  let seq = ref 0 in
  fun () ->
    incr seq;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "merlin-store-test-%d-%d" (Unix.getpid ()) !seq)

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let with_dir f =
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> try rm_rf dir with Sys_error _ | Unix.Unix_error _ -> ())
    (fun () -> f dir)

let test_store_roundtrip () =
  with_dir (fun dir ->
      let s = Store.open_dir dir in
      Alcotest.(check (option string)) "cold miss" None (Store.find s "k1");
      Store.add s "k1" "payload one";
      Store.add s "k2" "";
      Alcotest.(check (option string)) "hit" (Some "payload one")
        (Store.find s "k1");
      Alcotest.(check (option string)) "empty payload ok" (Some "")
        (Store.find s "k2");
      (* A second handle on the same directory sees the blobs: the
         store is the persistence, not the process. *)
      let s2 = Store.open_dir dir in
      Alcotest.(check (option string)) "reopened hit" (Some "payload one")
        (Store.find s2 "k1");
      let st = Store.stats s in
      Alcotest.(check int) "writes" 2 st.Store.writes;
      Alcotest.(check int) "hits" 2 st.Store.hits;
      Alcotest.(check int) "misses" 1 st.Store.misses;
      Alcotest.(check int) "errors" 0 st.Store.errors;
      Alcotest.check_raises "bad key rejected"
        (Invalid_argument "Store.find: invalid store key \"a/b\"") (fun () ->
          ignore (Store.find s "a/b")))

(* Crash safety: damaged blobs read as misses (and recompute works),
   never as exceptions; half-written tmp files are invisible. *)
let test_store_corruption () =
  with_dir (fun dir ->
      let s = Store.open_dir dir in
      Store.add s "trunc" "a payload long enough to truncate";
      Store.add s "garbage" "some payload";
      (* Truncate one blob mid-payload, overwrite the other with noise. *)
      let path key = Filename.concat dir (key ^ ".blob") in
      Unix.truncate (path "trunc") 10;
      Out_channel.with_open_bin (path "garbage") (fun oc ->
          output_string oc "!!! not a merlin-store blob !!!");
      Alcotest.(check (option string)) "truncated reads as miss" None
        (Store.find s "trunc");
      Alcotest.(check (option string)) "garbage reads as miss" None
        (Store.find s "garbage");
      Alcotest.(check int) "both damages counted" 2
        (Store.stats s).Store.errors;
      (* Recompute-and-rewrite heals the entry. *)
      Store.add s "trunc" "recomputed";
      Alcotest.(check (option string)) "healed" (Some "recomputed")
        (Store.find s "trunc");
      (* A half-written tmp file (no rename yet) is not a blob. *)
      Out_channel.with_open_bin
        (Filename.concat dir ".tmp-999-1")
        (fun oc -> output_string oc "partial");
      Alcotest.(check (option string)) "partial write invisible" None
        (Store.find s "tmp-999-1"))

let string_codec =
  { Cache.encode = Fun.id; decode = (fun s -> Some s) }

let test_cache_two_tier () =
  with_dir (fun dir ->
      let store = Store.open_dir dir in
      let c = Cache.create ~store:(store, string_codec) ~capacity:2 () in
      Alcotest.(check (option string)) "cold miss" None (Cache.find c "a");
      Cache.add c "a" "alpha";
      Alcotest.(check (option string)) "memory hit" (Some "alpha")
        (Cache.find c "a");
      (* Evict "a" from the memory tier; the store still has it and the
         find promotes it back. *)
      Cache.add c "b" "beta";
      Cache.add c "c" "gamma";
      Alcotest.(check (option string)) "store fallback after eviction"
        (Some "alpha") (Cache.find c "a");
      (* A fresh cache over the same store = a daemon restart: values
         come back from disk without any compute. *)
      let c2 = Cache.create ~store:(store, string_codec) ~capacity:2 () in
      Alcotest.(check (option string)) "warm restart" (Some "beta")
        (Cache.find c2 "b");
      let st = Cache.stats c2 in
      Alcotest.(check bool) "store stats attached" true
        (match st.Cache.store with Some _ -> true | None -> false);
      (* A codec that rejects the blob turns a store hit into a miss. *)
      let never =
        { Cache.encode = Fun.id; decode = (fun _ -> None) }
      in
      let c3 = Cache.create ~store:(store, never) ~capacity:2 () in
      Alcotest.(check (option string)) "undecodable blob is a miss" None
        (Cache.find c3 "a"))

let test_cache_memory_only () =
  let c = Cache.create ~capacity:2 () in
  Cache.add c "a" 1;
  Alcotest.(check (option int)) "hit" (Some 1) (Cache.find c "a");
  Alcotest.(check bool) "no store stats" true
    (match (Cache.stats c).Cache.store with None -> true | Some _ -> false)

(* ---------------- scheduler dedup ---------------- *)

(* Simultaneous identical submits must put exactly one task on the
   pool: the first miss leads, everyone else joins (or, arriving after
   the leader published, hits the cache).  Both late-arrival shapes
   report [Hit], so the assertions hold under every interleaving —
   while the pre-dedup scheduler fails them deterministically (each
   thread submitted its own task).  The job sleeps so the threads pile
   up on the pending entry and the join path actually runs. *)
let test_schedule_dedup () =
  Pool.with_pool ~domains:2 (fun pool ->
      let sched = Scheduler.create ~cache:(Cache.create ~capacity:8 ()) pool in
      let n = 8 in
      let job () =
        Thread.delay 0.05;
        42
      in
      let results = Array.make n None in
      let threads =
        List.init n (fun i ->
            Thread.create
              (fun () ->
                 results.(i) <- Some (Scheduler.schedule sched ~key:"k" job))
              ())
      in
      List.iter Thread.join threads;
      Alcotest.(check int) "one pool task for n identical submits" 1
        (Pool.stats pool).Pool.submitted;
      let misses = ref 0 in
      Array.iter
        (fun r ->
           match r with
           | Some (Scheduler.Done { value; cached }) ->
             Alcotest.(check int) "every thread got the value" 42 value;
             (match cached with Wire.Miss -> incr misses | Wire.Hit -> ())
           | Some _ -> Alcotest.fail "non-Done outcome from schedule"
           | None -> Alcotest.fail "thread finished without an outcome")
        results;
      Alcotest.(check int) "exactly the leader reports a miss" 1 !misses)

(* ---------------- generators ---------------- *)

let gen_name =
  QCheck.Gen.(
    map (String.concat "") (list_size (int_range 1 8) (map (String.make 1) (char_range 'a' 'z'))))

(* Finite floats with both "round" and awkward decimal expansions, so
   the shortest-round-trip printer is actually exercised. *)
let gen_float =
  QCheck.Gen.(
    oneof
      [ map float_of_int (int_range (-10000) 10000);
        float_range (-1e6) 1e6;
        map (fun f -> f /. 3.0) (float_range 0.0 1e4) ])

let gen_model =
  QCheck.Gen.(
    map
      (fun (d0, r_drive, k_slew, s0) ->
         Delay_model.make ~d0 ~r_drive ~k_slew ~s0)
      (quad gen_float gen_float gen_float gen_float))

let gen_tech =
  QCheck.Gen.(
    map
      (fun (name, (r, c, a)) ->
         { Tech.name; unit_wire_res = r; unit_wire_cap = c; unit_wire_area = a })
      (pair gen_name (triple gen_float gen_float gen_float)))

let gen_buffer =
  QCheck.Gen.(
    map
      (fun (name, area, input_cap, model) ->
         { Buffer_lib.name; area; input_cap; model })
      (quad gen_name gen_float gen_float gen_model))

let gen_buffers =
  QCheck.Gen.(map Array.of_list (list_size (int_range 1 4) gen_buffer))

let gen_objective =
  QCheck.Gen.(
    oneof
      [ return Merlin_core.Objective.Best_req;
        map (fun b -> Merlin_core.Objective.Max_req_under_area b) gen_float;
        map (fun b -> Merlin_core.Objective.Min_area_over_req b) gen_float ])

let gen_cfg =
  QCheck.Gen.(
    map
      (fun (alpha, bubbling, full_hanan, max_iters) ->
         { Merlin_core.Config.default with
           Merlin_core.Config.alpha = alpha;
           bubbling;
           full_hanan;
           max_iters })
      (quad (int_range 2 20) bool bool (int_range 1 8)))

let gen_flat_algo =
  QCheck.Gen.(
    oneof
      [ map (fun max_fanout -> Flows.Lttree_ptree { max_fanout }) (int_range 2 20);
        map
          (fun refine_seg -> Flows.Ptree_vg { refine_seg })
          (opt (int_range 1 10));
        map2
          (fun cfg objective -> Flows.Merlin { cfg; objective })
          (opt gen_cfg) gen_objective ])

let gen_cluster =
  QCheck.Gen.(
    map
      (fun (target_size, n_clusters, strategy, max_iters) ->
         { Merlin_hier.Cluster.target_size; n_clusters; strategy; max_iters })
      (quad (int_range 1 32)
         (opt (int_range 1 8))
         (oneofl [ Merlin_hier.Cluster.Kmeans; Merlin_hier.Cluster.Sweep ])
         (int_range 0 32)))

(* The wire protocol rejects nested hier, so the generator only nests a
   flat inner flow. *)
let gen_algo =
  QCheck.Gen.(
    oneof
      [ gen_flat_algo;
        map2
          (fun cluster inner -> Flows.Hier { cluster; inner })
          gen_cluster gen_flat_algo ])

let gen_spec =
  QCheck.Gen.(
    map
      (fun (tech, buffers, algo) -> { Flows.tech; buffers; algo })
      (triple gen_tech gen_buffers gen_algo))

let gen_net =
  QCheck.Gen.(
    map2
      (fun n seed -> Net_gen.random_net ~seed ~name:"wire" ~n tech)
      (int_range 1 8) (int_range 0 1000))

let gen_request =
  QCheck.Gen.(
    map
      (fun (job, spec, net, (deadline_s, want_tree)) ->
         { Wire.job; spec; net; deadline_s; want_tree })
      (quad gen_name gen_spec gen_net
         (pair (opt (float_range 0.001 100.0)) bool)))

let gen_named_nets =
  QCheck.Gen.(
    map
      (List.mapi (fun i net -> (Printf.sprintf "net%d" i, net)))
      (list_size (int_range 1 4) gen_net))

let gen_batch =
  QCheck.Gen.(
    map
      (fun ((job, spec, nets), (deadline_s, want_tree, with_manifest)) ->
         let manifest =
           if with_manifest then
             (* A plausible ECO manifest: some entries match the net's
                real fingerprint, some don't, some name unknown nets. *)
             Some
               (("ghost", "0123456789abcdef")
               :: List.mapi
                    (fun i (name, net) ->
                       ( name,
                         if i mod 2 = 0 then Net_io.fingerprint net
                         else "fedcba9876543210" ))
                    nets)
           else None
         in
         { Wire.job; spec; nets; deadline_s; want_tree; manifest })
      (pair
         (triple gen_name gen_spec gen_named_nets)
         (triple (opt (float_range 0.001 100.0)) bool bool)))

let arb_spec = QCheck.make ~print:(fun s -> Json.to_string (Wire.spec_to_json s)) gen_spec

let arb_request =
  QCheck.make
    ~print:(fun r -> Wire.encode_client (Wire.Route r))
    gen_request

let arb_batch =
  QCheck.make ~print:(fun b -> Wire.encode_client (Wire.Batch b)) gen_batch

(* ---------------- wire round trips ---------------- *)

let spec_roundtrip spec =
  let j = Wire.spec_to_json spec in
  match Wire.spec_of_json j with
  | Error msg -> QCheck.Test.fail_reportf "spec decode failed: %s" msg
  | Ok spec' ->
    (* Structural equality through the canonical encoding: the decoder
       must reconstruct a spec that re-encodes byte-identically. *)
    String.equal (Json.to_string j) (Json.to_string (Wire.spec_to_json spec'))

let client_msg_roundtrip m =
  let text = Wire.encode_client m in
  match Wire.decode_client text with
  | Error msg -> QCheck.Test.fail_reportf "client decode failed: %s" msg
  | Ok (Wire.V1, _) -> QCheck.Test.fail_reportf "own encoding decoded as v1"
  | Ok (Wire.V2, msg) -> String.equal text (Wire.encode_client msg)

let client_roundtrip r = client_msg_roundtrip (Wire.Route r)

let batch_roundtrip b = client_msg_roundtrip (Wire.Batch b)

let admin_roundtrip () =
  List.iter
    (fun op ->
       let m = Wire.Admin { job = "adm1"; op } in
       match Wire.decode_client (Wire.encode_client m) with
       | Ok (Wire.V2, m') ->
         Alcotest.(check string) "admin msg" (Wire.encode_client m)
           (Wire.encode_client m')
       | Ok (Wire.V1, _) -> Alcotest.fail "own encoding decoded as v1"
       | Error msg -> Alcotest.fail msg)
    [ Wire.Stats; Wire.Ping; Wire.Drain; Wire.Shutdown ]

let sample_metrics =
  { Metrics.flow = "III:MERLIN";
    area = 48.25;
    delay = 1056.71;
    root_req = 2564.0 /. 3.0;
    runtime = 0.125;
    n_buffers = 4;
    wirelength = 8393;
    loops = 2;
    clusters = 3;
    levels = 2;
    cluster_sizes = [ 4; 5; 3 ];
    tree = None }

(* Every v2 server frame kind re-encodes byte-identically through the
   decoder. *)
let server_msg_roundtrip () =
  let metrics = sample_metrics in
  let statuses =
    [ Wire.Routed { cached = Wire.Hit; metrics };
      Wire.Routed { cached = Wire.Miss; metrics };
      Wire.Unchanged;
      Wire.Net_failed { kind = Wire.Timeout; message = "too slow" };
      Wire.Cancelled ]
  in
  let progress =
    List.mapi
      (fun i status ->
         Wire.Progress
           { job = "b1"; seq = i + 1; index = i; name = Printf.sprintf "n%d" i;
             status })
      statuses
  in
  List.iter
    (fun m ->
       match Wire.decode_server (Wire.encode_server m) with
       | Ok (Wire.V2, m') ->
         Alcotest.(check string) "server msg" (Wire.encode_server m)
           (Wire.encode_server m')
       | Ok (Wire.V1, _) -> Alcotest.fail "own encoding decoded as v1"
       | Error msg -> Alcotest.fail msg)
    ([ Wire.Reply { job = "r1"; cached = Wire.Hit; metrics };
       Wire.Reply { job = "r2"; cached = Wire.Miss; metrics };
       Wire.Refused
         { job = "r3"; kind = Wire.Timeout; message = "deadline exceeded" };
       Wire.Refused { job = ""; kind = Wire.Bad_request; message = "nope" };
       Wire.Batch_done
         { job = "b1";
           seq = 6;
           summary =
             { Wire.total = 5; routed = 2; hits = 1; unchanged = 1; failed = 1;
               cancelled = 0; wall_s = 1.5 } };
       Wire.Stats_reply { job = "s"; stats = Json.Obj [ ("x", Json.Num 1.0) ] };
       Wire.Pong { job = "p" };
       Wire.Admin_ok { job = "d"; what = "draining" } ]
    @ progress)

(* v1 frames — the pre-envelope grammar — must keep decoding, with the
   v1 [id] mapped to [job] and admin frames getting job "". *)
let v1_compat_decode () =
  let spec =
    { Flows.tech; buffers; algo = Flows.Lttree_ptree { max_fanout = 10 } }
  in
  let net = Net_gen.random_net ~seed:5 ~name:"v1" ~n:4 tech in
  let v1_route =
    Json.to_string
      (Json.Obj
         [ ("v", Json.Num 1.0);
           ("type", Json.Str "route");
           ("id", Json.Str "legacy");
           ("spec", Wire.spec_to_json spec);
           ("net", Json.Str (Net_io.to_string net)) ])
  in
  (match Wire.decode_client v1_route with
   | Ok (Wire.V1, Wire.Route r) ->
     Alcotest.(check string) "v1 id becomes job" "legacy" r.Wire.job;
     Alcotest.(check string) "net survives"
       (Net_io.fingerprint net)
       (Net_io.fingerprint r.Wire.net);
     Alcotest.(check string) "spec survives (same cache key)"
       (Wire.request_key spec net)
       (Wire.request_key r.Wire.spec r.Wire.net)
   | Ok _ -> Alcotest.fail "v1 route decoded to the wrong shape"
   | Error msg -> Alcotest.fail msg);
  (match Wire.decode_client "{\"v\":1,\"type\":\"ping\"}" with
   | Ok (Wire.V1, Wire.Admin { job = ""; op = Wire.Ping }) -> ()
   | Ok _ -> Alcotest.fail "v1 ping decoded to the wrong shape"
   | Error msg -> Alcotest.fail msg);
  (* Replies rendered for a v1 peer round trip through the v1 grammar
     and carry the v1 field names. *)
  let reply =
    Wire.Reply { job = "legacy"; cached = Wire.Hit; metrics = sample_metrics }
  in
  let text = Wire.encode_server ~proto:Wire.V1 reply in
  Alcotest.(check bool) "v1 reply carries id" true
    (let sub = "\"id\":\"legacy\"" in
     let rec contains i =
       i + String.length sub <= String.length text
       && (String.equal (String.sub text i (String.length sub)) sub
           || contains (i + 1))
     in
     contains 0);
  (match Wire.decode_server text with
   | Ok (Wire.V1, Wire.Reply { job = "legacy"; cached = Wire.Hit; _ }) -> ()
   | Ok _ -> Alcotest.fail "v1 reply decoded to the wrong shape"
   | Error msg -> Alcotest.fail msg);
  (* The v1 grammar has no multi-frame kinds: encoding them as v1 is a
     caller bug. *)
  Alcotest.check_raises "no v1 progress"
    (Invalid_argument "Wire.encode_server: v1 cannot carry multi-frame replies")
    (fun () ->
       ignore
         (Wire.encode_server ~proto:Wire.V1
            (Wire.Progress
               { job = "b"; seq = 1; index = 0; name = "n"; status = Wire.Unchanged })))

let decode_rejects () =
  let is_error = function Error _ -> true | Ok _ -> false in
  Alcotest.(check bool) "garbage" true (is_error (Wire.decode_client "{x"));
  Alcotest.(check bool) "not a message" true
    (is_error (Wire.decode_client "{\"v\":1}"));
  Alcotest.(check bool) "wrong version" true
    (is_error (Wire.decode_client "{\"v\":99,\"type\":\"ping\"}"));
  Alcotest.(check bool) "unknown v1 type" true
    (is_error (Wire.decode_client "{\"v\":1,\"type\":\"frobnicate\"}"));
  Alcotest.(check bool) "v1 has no batch" true
    (is_error
       (Wire.decode_client "{\"v\":1,\"type\":\"batch\",\"id\":\"x\"}"));
  Alcotest.(check bool) "unknown v2 type" true
    (is_error
       (Wire.decode_client
          "{\"v\":2,\"job\":\"x\",\"seq\":0,\"type\":\"frobnicate\"}"));
  Alcotest.(check bool) "v2 without job" true
    (is_error (Wire.decode_client "{\"v\":2,\"type\":\"ping\"}"));
  Alcotest.(check bool) "bad net text" true
    (is_error
       (Wire.decode_client
          "{\"v\":1,\"type\":\"route\",\"id\":\"x\",\"spec\":{},\"net\":\"zz\"}"));
  Alcotest.(check bool) "batch with bad manifest" true
    (is_error
       (Wire.decode_client
          "{\"v\":2,\"job\":\"x\",\"seq\":0,\"type\":\"batch\",\"spec\":{},\"nets\":[],\"manifest\":[{\"name\":3}]}"))

(* Flow knobs the flows would reject with Invalid_argument inside a pool
   task are refused at decode instead, with the flow's own message. *)
let decode_rejects_flow_knobs () =
  let base =
    Wire.spec_to_json
      { Flows.tech; buffers; algo = Flows.Lttree_ptree { max_fanout = 10 } }
  in
  let with_algo algo =
    match base with
    | Json.Obj fields ->
      Json.Obj
        (List.map
           (fun (k, v) -> if String.equal k "algo" then (k, algo) else (k, v))
           fields)
    | _ -> Alcotest.fail "spec_to_json is not an object"
  in
  let decode flow field v =
    Wire.spec_of_json
      (with_algo
         (Json.Obj [ ("flow", Json.Str flow); (field, Json.Num (float_of_int v)) ]))
  in
  let refused what msg = function
    | Error m -> Alcotest.(check string) what msg m
    | Ok _ -> Alcotest.failf "%s: accepted" what
  in
  let accepted what = function
    | Ok _ -> ()
    | Error m -> Alcotest.failf "%s: %s" what m
  in
  List.iter
    (fun v ->
       refused
         (Printf.sprintf "max_fanout %d" v)
         "lttree-ptree: max_fanout must be >= 2"
         (decode "lttree-ptree" "max_fanout" v))
    [ 1; 0; -3 ];
  List.iter
    (fun v ->
       refused
         (Printf.sprintf "refine_seg %d" v)
         "ptree-vg: refine_seg must be >= 1"
         (decode "ptree-vg" "refine_seg" v))
    [ 0; -3 ];
  accepted "max_fanout 2" (decode "lttree-ptree" "max_fanout" 2);
  accepted "refine_seg 1" (decode "ptree-vg" "refine_seg" 1)

(* ---------------- cache keys ---------------- *)

let mk_sink id (x, y, cap, req) =
  Sink.make ~id ~pt:(Merlin_geometry.Point.make x y) ~cap ~req

let test_fingerprint_sink_order () =
  let a = (0, 0, 5.0, 100.0) and b = (900, 40, 9.0, 250.0) in
  let mk name sinks =
    Net.make ~name ~source:(Merlin_geometry.Point.make 10 10)
      ~driver:Net.default_driver
      (List.mapi mk_sink sinks)
  in
  let net_ab = mk "n" [ a; b ] and net_ba = mk "n" [ b; a ] in
  Alcotest.(check bool) "sink order changes the fingerprint" false
    (String.equal (Net_io.fingerprint net_ab) (Net_io.fingerprint net_ba));
  let renamed = mk "other-name" [ a; b ] in
  Alcotest.(check string) "renaming does not change the fingerprint"
    (Net_io.fingerprint net_ab) (Net_io.fingerprint renamed)

let test_fingerprint_survives_save_load () =
  List.iter
    (fun seed ->
       let net = Net_gen.random_net ~seed ~name:"fp" ~n:7 tech in
       let reloaded = Net_io.of_string (Net_io.to_string net) in
       Alcotest.(check string)
         (Printf.sprintf "seed %d reload keeps the key" seed)
         (Net_io.fingerprint net)
         (Net_io.fingerprint reloaded))
    [ 1; 2; 3; 42 ]

let test_request_key_separates () =
  let net = Net_gen.random_net ~seed:7 ~name:"k" ~n:5 tech in
  let net' = Net_gen.random_net ~seed:8 ~name:"k" ~n:5 tech in
  let spec algo = { Flows.tech; buffers; algo } in
  let s1 = spec (Flows.Lttree_ptree { max_fanout = 10 }) in
  let s2 = spec (Flows.Ptree_vg { refine_seg = None }) in
  Alcotest.(check bool) "different nets, different keys" false
    (String.equal (Wire.request_key s1 net) (Wire.request_key s1 net'));
  Alcotest.(check bool) "different algos, different keys" false
    (String.equal (Wire.request_key s1 net) (Wire.request_key s2 net));
  let reloaded = Net_io.of_string (Net_io.to_string net) in
  Alcotest.(check string) "reloaded net, same key" (Wire.request_key s1 net)
    (Wire.request_key s1 reloaded)

(* Encoders before the frontier knobs were removed wrote
   "curve_epsilon":0 and "max_frontier":0 into every MERLIN cfg.  Such a
   spec still decodes, to the spec without them: the decoder ignores
   them like any other unknown field. *)
let test_removed_cfg_fields_ignored () =
  let rec with_old_fields = function
    | Json.Obj fields ->
      Json.Obj
        (List.map
           (fun (k, v) ->
              match (k, v) with
              | "cfg", Json.Obj cfg ->
                ( k,
                  Json.Obj
                    (cfg
                    @ [ ("curve_epsilon", Json.Num 0.0);
                        ("max_frontier", Json.Num 0.0) ]) )
              | _ -> (k, with_old_fields v))
           fields)
    | j -> j
  in
  List.iter
    (fun algo ->
       let spec = { Flows.tech; buffers; algo } in
       let j = Wire.spec_to_json spec in
       let old = with_old_fields j in
       Alcotest.(check bool) "old fields present" false
         (String.equal (Json.to_string j) (Json.to_string old));
       match Wire.spec_of_json old with
       | Error msg -> Alcotest.fail msg
       | Ok spec' ->
         Alcotest.(check string) "decodes to the spec without them"
           (Json.to_string j)
           (Json.to_string (Wire.spec_to_json spec')))
    [ Flows.Merlin
        { cfg = Some Merlin_core.Config.default;
          objective = Merlin_core.Objective.Best_req };
      Option.get (Flows.default_algo "hier") ]

(* Keys of specs without an explicit MERLIN cfg do not depend on the
   Config record, so they must never move: a store written by an older
   daemon keeps answering them.  Captured before the frontier knobs
   were removed. *)
let test_request_keys_pinned () =
  let net = Net_gen.random_net ~seed:7 ~name:"k" ~n:5 tech in
  List.iter
    (fun (name, key) ->
       let algo = Option.get (Flows.default_algo name) in
       Alcotest.(check string) name key
         (Wire.request_key { Flows.tech; buffers; algo } net))
    [ ("lttree-ptree", "bf347d76a898eb0766d9e8aae46b0047");
      ("ptree-vg", "a7821a4c93d3d1ad4c2a9ecb51659387");
      ("merlin", "570163c99d6aed2e851f94b4f1e9aba5") ]

let suite =
  ( "serve",
    [ Alcotest.test_case "lru basic" `Quick test_lru_basic;
      Alcotest.test_case "lru eviction order" `Quick test_lru_evicts_least_recent;
      Alcotest.test_case "lru capacity one" `Quick test_lru_capacity_one;
      Alcotest.test_case "store round trip" `Quick test_store_roundtrip;
      Alcotest.test_case "store survives corruption" `Quick
        test_store_corruption;
      Alcotest.test_case "two-tier cache" `Quick test_cache_two_tier;
      Alcotest.test_case "memory-only cache" `Quick test_cache_memory_only;
      Alcotest.test_case "scheduler dedups in-flight keys" `Quick
        test_schedule_dedup;
      qtest "spec json round trip" arb_spec spec_roundtrip;
      qtest ~count:60 "route msg round trip" arb_request client_roundtrip;
      qtest ~count:60 "batch msg round trip" arb_batch batch_roundtrip;
      Alcotest.test_case "admin msg round trip" `Quick admin_roundtrip;
      Alcotest.test_case "server msg round trip" `Quick server_msg_roundtrip;
      Alcotest.test_case "v1 compatibility decode" `Quick v1_compat_decode;
      Alcotest.test_case "decoder rejects bad input" `Quick decode_rejects;
      Alcotest.test_case "decoder rejects bad flow knobs" `Quick
        decode_rejects_flow_knobs;
      Alcotest.test_case "fingerprint vs sink order" `Quick
        test_fingerprint_sink_order;
      Alcotest.test_case "fingerprint save/load" `Quick
        test_fingerprint_survives_save_load;
      Alcotest.test_case "request keys separate" `Quick
        test_request_key_separates;
      Alcotest.test_case "removed cfg fields ignored" `Quick
        test_removed_cfg_fields_ignored;
      Alcotest.test_case "cfg-less request keys pinned" `Quick
        test_request_keys_pinned ] )
