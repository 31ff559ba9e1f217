(* Wire protocol of the routing service, version 2.

   Frames: a 4-byte big-endian payload length followed by that many
   bytes of UTF-8 JSON.  Length-prefixing keeps framing independent of
   payload content (trees and nets may contain anything) and lets the
   reader refuse oversized frames before allocating.

   Every payload is a versioned envelope: ["v"] (protocol version),
   ["job"] (client-chosen correlation id, echoed on every frame of the
   job — "" where no job applies), ["seq"] (frame ordinal within the
   job's reply stream; 0 on single-frame exchanges) and ["type"].
   Version 2 adds multi-frame jobs: a [Batch] request carries a whole
   netlist and streams back one [Progress] frame per net plus a
   terminal [Batch_done] summary, with an optional fingerprint
   manifest turning the batch into an ECO re-route (nets whose
   {!Merlin_net.Net_io.fingerprint} matches the manifest are answered
   [Unchanged] without computing).

   Decoders are version-dispatched and total — version-1 single-route
   frames still decode (the v1 [id] field becomes [job], admin frames
   get job ""), and malformed input of any version becomes an [Error]
   the server answers with a structured [Refused], never an exception
   and never a dead socket.  [encode_server ~proto] renders replies in
   the peer's protocol version so v1 clients keep working; the v1
   grammar has no multi-frame kinds, so rendering [Progress] or
   [Batch_done] as v1 is a caller bug and raises.

   The routing problem travels as a {!Merlin_flows.Flows.spec}
   (tech + buffer library + algorithm knobs) plus the net in its
   canonical Net_io text form.  The cache key is derived from exactly
   these two: [request_key] hashes the canonical spec JSON together
   with the net fingerprint, so a key separates any two requests that
   could legally produce different answers (different sink order,
   different tech, different knobs) and nothing else — and it is
   version-independent, so a v2 daemon's store serves v1 traffic. *)

open Merlin_tech
open Merlin_net
module Flows = Merlin_flows.Flows
module Json = Merlin_report.Json
module Metrics = Merlin_report.Metrics

let version = 2

type proto = V1 | V2

(* ------------------------------------------------------------------ *)
(* Types                                                               *)
(* ------------------------------------------------------------------ *)

type request = {
  job : string;               (* client-chosen, echoed in the reply *)
  spec : Flows.spec;
  net : Net.t;
  deadline_s : float option;  (* per-request compute budget *)
  want_tree : bool;           (* include the routing tree in the reply *)
}

type batch = {
  job : string;
  spec : Flows.spec;                      (* one spec for every net *)
  nets : (string * Net.t) list;           (* (name, net), name echoed *)
  deadline_s : float option;              (* per-net compute budget *)
  want_tree : bool;
  manifest : (string * string) list option;
      (* ECO mode: (name, fingerprint) of the previously routed nets;
         a net whose fingerprint still matches is not re-routed *)
}

type admin_op = Stats | Ping | Drain | Shutdown

type client_msg =
  | Route of request
  | Batch of batch
  | Admin of { job : string; op : admin_op }

type error_kind =
  | Bad_request
  | Infeasible
  | Timeout
  | Draining
  | Internal

type cache_status = Hit | Miss

type net_status =
  | Routed of { cached : cache_status; metrics : Metrics.t }
  | Unchanged                     (* ECO: fingerprint matched the manifest *)
  | Net_failed of { kind : error_kind; message : string }
  | Cancelled                     (* job cancelled before this net ran *)

type progress = {
  job : string;
  seq : int;        (* 1-based frame ordinal within the job *)
  index : int;      (* position of the net in the batch request *)
  name : string;
  status : net_status;
}

type summary = {
  total : int;
  routed : int;     (* computed on the pool *)
  hits : int;       (* answered from a cache tier *)
  unchanged : int;  (* ECO skips *)
  failed : int;
  cancelled : int;
  wall_s : float;
}

type server_msg =
  | Reply of { job : string; cached : cache_status; metrics : Metrics.t }
  | Progress of progress
  | Batch_done of { job : string; seq : int; summary : summary }
  | Refused of { job : string; kind : error_kind; message : string }
      (* job "" when the defect predates knowing the job *)
  | Stats_reply of { job : string; stats : Json.t }
  | Pong of { job : string }
  | Admin_ok of { job : string; what : string }

(* ------------------------------------------------------------------ *)
(* JSON helpers (total decoders)                                       *)
(* ------------------------------------------------------------------ *)

let ( let* ) = Result.bind

let field name j =
  match Json.member name j with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing field %S" name)

let fnum name j =
  let* v = field name j in
  match Json.to_num v with
  | Some f -> Ok f
  | None -> Error (Printf.sprintf "field %S: expected a number" name)

let fint name j =
  let* f = fnum name j in
  if Float.is_integer f then Ok (int_of_float f)
  else Error (Printf.sprintf "field %S: expected an integer" name)

let fstr name j =
  let* v = field name j in
  match Json.to_str v with
  | Some s -> Ok s
  | None -> Error (Printf.sprintf "field %S: expected a string" name)

let fbool_opt ~default name j =
  match Json.member name j with
  | None -> Ok default
  | Some v -> (
    match Json.to_bool v with
    | Some b -> Ok b
    | None -> Error (Printf.sprintf "field %S: expected a bool" name))

let fnum_opt name j =
  match Json.member name j with
  | None -> Ok None
  | Some v -> (
    match Json.to_num v with
    | Some f -> Ok (Some f)
    | None -> Error (Printf.sprintf "field %S: expected a number" name))

let num f = Json.Num f

let int i = Json.Num (float_of_int i)

(* ------------------------------------------------------------------ *)
(* Spec encoding                                                       *)
(* ------------------------------------------------------------------ *)

let tech_to_json (t : Tech.t) =
  Json.Obj
    [ ("name", Json.Str t.Tech.name);
      ("unit_wire_res", num t.Tech.unit_wire_res);
      ("unit_wire_cap", num t.Tech.unit_wire_cap);
      ("unit_wire_area", num t.Tech.unit_wire_area) ]

let tech_of_json j =
  let* name = fstr "name" j in
  let* unit_wire_res = fnum "unit_wire_res" j in
  let* unit_wire_cap = fnum "unit_wire_cap" j in
  let* unit_wire_area = fnum "unit_wire_area" j in
  Ok { Tech.name; unit_wire_res; unit_wire_cap; unit_wire_area }

let model_to_json (m : Delay_model.t) =
  Json.Obj
    [ ("d0", num m.Delay_model.d0);
      ("r_drive", num m.Delay_model.r_drive);
      ("k_slew", num m.Delay_model.k_slew);
      ("s0", num m.Delay_model.s0) ]

let model_of_json j =
  let* d0 = fnum "d0" j in
  let* r_drive = fnum "r_drive" j in
  let* k_slew = fnum "k_slew" j in
  let* s0 = fnum "s0" j in
  Ok (Delay_model.make ~d0 ~r_drive ~k_slew ~s0)

let buffer_to_json (b : Buffer_lib.buffer) =
  Json.Obj
    [ ("name", Json.Str b.Buffer_lib.name);
      ("area", num b.Buffer_lib.area);
      ("input_cap", num b.Buffer_lib.input_cap);
      ("model", model_to_json b.Buffer_lib.model) ]

let buffer_of_json j =
  let* name = fstr "name" j in
  let* area = fnum "area" j in
  let* input_cap = fnum "input_cap" j in
  let* model = Result.bind (field "model" j) model_of_json in
  Ok { Buffer_lib.name; area; input_cap; model }

let buffers_of_json j =
  match Json.to_list j with
  | None -> Error "field \"buffers\": expected an array"
  | Some [] -> Error "field \"buffers\": empty buffer library"
  | Some bs ->
    let* rev =
      List.fold_left
        (fun acc b ->
           let* acc = acc in
           let* b = buffer_of_json b in
           Ok (b :: acc))
        (Ok []) bs
    in
    Ok (Array.of_list (List.rev rev))

let objective_to_json (o : Merlin_core.Objective.t) =
  match o with
  | Merlin_core.Objective.Best_req -> Json.Obj [ ("kind", Json.Str "best") ]
  | Merlin_core.Objective.Max_req_under_area budget ->
    Json.Obj [ ("kind", Json.Str "area"); ("bound", num budget) ]
  | Merlin_core.Objective.Min_area_over_req floor ->
    Json.Obj [ ("kind", Json.Str "req"); ("bound", num floor) ]

let objective_of_json j =
  let* kind = fstr "kind" j in
  match kind with
  | "best" -> Ok Merlin_core.Objective.Best_req
  | "area" ->
    let* b = fnum "bound" j in
    Ok (Merlin_core.Objective.Max_req_under_area b)
  | "req" ->
    let* b = fnum "bound" j in
    Ok (Merlin_core.Objective.Min_area_over_req b)
  | other -> Error (Printf.sprintf "objective kind %S (best|area|req)" other)

let chain_placement_to_string = function
  | Merlin_core.Config.All_positions -> "all_positions"
  | Merlin_core.Config.Flush_ends -> "flush_ends"

let cfg_to_json (c : Merlin_core.Config.t) =
  let open Merlin_core.Config in
  Json.Obj
    [ ("alpha", int c.alpha);
      ("max_curve", int c.max_curve);
      ("quant_req", num c.quant_req);
      ("quant_load", num c.quant_load);
      ("quant_area", num c.quant_area);
      ("candidate_limit", int c.candidate_limit);
      ("buffer_trials", int c.buffer_trials);
      ("bbox_slack", num c.bbox_slack);
      ("full_hanan", Json.Bool c.full_hanan);
      ("chain_placement", Json.Str (chain_placement_to_string c.chain_placement));
      ("bubbling", Json.Bool c.bubbling);
      ("max_iters", int c.max_iters) ]

(* Missing knobs default from [Config.default] — clients override only
   what they care about; [Config.validate] rejects nonsense ranges. *)
let cfg_of_json j =
  let open Merlin_core.Config in
  let d = default in
  let* alpha = match Json.member "alpha" j with None -> Ok d.alpha | Some _ -> fint "alpha" j in
  let* max_curve = match Json.member "max_curve" j with None -> Ok d.max_curve | Some _ -> fint "max_curve" j in
  let* quant_req = match Json.member "quant_req" j with None -> Ok d.quant_req | Some _ -> fnum "quant_req" j in
  let* quant_load = match Json.member "quant_load" j with None -> Ok d.quant_load | Some _ -> fnum "quant_load" j in
  let* quant_area = match Json.member "quant_area" j with None -> Ok d.quant_area | Some _ -> fnum "quant_area" j in
  let* candidate_limit = match Json.member "candidate_limit" j with None -> Ok d.candidate_limit | Some _ -> fint "candidate_limit" j in
  let* buffer_trials = match Json.member "buffer_trials" j with None -> Ok d.buffer_trials | Some _ -> fint "buffer_trials" j in
  let* bbox_slack = match Json.member "bbox_slack" j with None -> Ok d.bbox_slack | Some _ -> fnum "bbox_slack" j in
  let* full_hanan = fbool_opt ~default:d.full_hanan "full_hanan" j in
  let* bubbling = fbool_opt ~default:d.bubbling "bubbling" j in
  let* max_iters = match Json.member "max_iters" j with None -> Ok d.max_iters | Some _ -> fint "max_iters" j in
  let* chain_placement =
    match Json.member "chain_placement" j with
    | None -> Ok d.chain_placement
    | Some v -> (
      match Json.to_str v with
      | Some "all_positions" -> Ok All_positions
      | Some "flush_ends" -> Ok Flush_ends
      | Some other ->
        Error
          (Printf.sprintf "chain_placement %S (all_positions|flush_ends)" other)
      | None -> Error "field \"chain_placement\": expected a string")
  in
  let cfg =
    { alpha; max_curve; quant_req; quant_load; quant_area; candidate_limit;
      buffer_trials; bbox_slack; full_hanan; chain_placement; bubbling;
      max_iters }
  in
  match validate cfg with
  | () -> Ok cfg
  | exception Invalid_argument msg -> Error msg

let strategy_to_string = function
  | Merlin_hier.Cluster.Kmeans -> "kmeans"
  | Merlin_hier.Cluster.Sweep -> "sweep"

let cluster_to_json (c : Merlin_hier.Cluster.config) =
  Json.Obj
    ([ ("target_size", int c.Merlin_hier.Cluster.target_size) ]
    @ (match c.Merlin_hier.Cluster.n_clusters with
       | None -> []
       | Some k -> [ ("n_clusters", int k) ])
    @ [ ("strategy", Json.Str (strategy_to_string c.Merlin_hier.Cluster.strategy));
        ("max_iters", int c.Merlin_hier.Cluster.max_iters) ])

(* Missing clustering knobs default from [Cluster.default], like the
   MERLIN cfg above. *)
let cluster_of_json j =
  let open Merlin_hier.Cluster in
  let d = default in
  let* target_size =
    match Json.member "target_size" j with
    | None -> Ok d.target_size
    | Some _ -> fint "target_size" j
  in
  let* n_clusters =
    match Json.member "n_clusters" j with
    | None -> Ok None
    | Some _ -> Result.map Option.some (fint "n_clusters" j)
  in
  let* max_iters =
    match Json.member "max_iters" j with
    | None -> Ok d.max_iters
    | Some _ -> fint "max_iters" j
  in
  let* strategy =
    match Json.member "strategy" j with
    | None -> Ok d.strategy
    | Some v -> (
      match Json.to_str v with
      | Some "kmeans" -> Ok Kmeans
      | Some "sweep" -> Ok Sweep
      | Some other -> Error (Printf.sprintf "strategy %S (kmeans|sweep)" other)
      | None -> Error "field \"strategy\": expected a string")
  in
  if target_size < 1 then Error "cluster: target_size must be >= 1"
  else if max_iters < 0 then Error "cluster: max_iters must be >= 0"
  else if (match n_clusters with Some k -> k < 1 | None -> false) then
    Error "cluster: n_clusters must be >= 1"
  else Ok { target_size; n_clusters; strategy; max_iters }

let rec algo_to_json (a : Flows.algo) =
  match a with
  | Flows.Lttree_ptree { max_fanout } ->
    Json.Obj
      [ ("flow", Json.Str "lttree-ptree"); ("max_fanout", int max_fanout) ]
  | Flows.Ptree_vg { refine_seg } ->
    Json.Obj
      ([ ("flow", Json.Str "ptree-vg") ]
      @ (match refine_seg with
         | None -> []
         | Some s -> [ ("refine_seg", int s) ]))
  | Flows.Merlin { cfg; objective } ->
    Json.Obj
      ([ ("flow", Json.Str "merlin"); ("objective", objective_to_json objective) ]
      @ (match cfg with None -> [] | Some c -> [ ("cfg", cfg_to_json c) ]))
  | Flows.Hier { cluster; inner } ->
    Json.Obj
      [ ("flow", Json.Str "hier");
        ("cluster", cluster_to_json cluster);
        ("inner", algo_to_json inner) ]

let rec algo_of_json j =
  let* flow = fstr "flow" j in
  match flow with
  | "lttree-ptree" ->
    let* max_fanout =
      match Json.member "max_fanout" j with
      | None -> Ok 10
      | Some _ -> fint "max_fanout" j
    in
    if max_fanout < 2 then Error "lttree-ptree: max_fanout must be >= 2"
    else Ok (Flows.Lttree_ptree { max_fanout })
  | "ptree-vg" ->
    let* refine_seg =
      match Json.member "refine_seg" j with
      | None -> Ok None
      | Some _ -> Result.map Option.some (fint "refine_seg" j)
    in
    (match refine_seg with
     | Some seg when seg < 1 -> Error "ptree-vg: refine_seg must be >= 1"
     | Some _ | None -> Ok (Flows.Ptree_vg { refine_seg }))
  | "merlin" ->
    let* objective =
      match Json.member "objective" j with
      | None -> Ok Merlin_core.Objective.Best_req
      | Some o -> objective_of_json o
    in
    let* cfg =
      match Json.member "cfg" j with
      | None -> Ok None
      | Some c -> Result.map Option.some (cfg_of_json c)
    in
    Ok (Flows.Merlin { cfg; objective })
  | "hier" ->
    let* cluster =
      match Json.member "cluster" j with
      | None -> Ok Merlin_hier.Cluster.default
      | Some c -> cluster_of_json c
    in
    let* inner =
      match Json.member "inner" j with
      | None ->
        Ok (Flows.Merlin { cfg = None; objective = Merlin_core.Objective.Best_req })
      | Some i -> algo_of_json i
    in
    (match inner with
     | Flows.Hier _ -> Error "hier: inner flow must be flat"
     | Flows.Lttree_ptree _ | Flows.Ptree_vg _ | Flows.Merlin _ ->
       Ok (Flows.Hier { cluster; inner }))
  | other ->
    Error (Printf.sprintf "flow %S (lttree-ptree|ptree-vg|merlin|hier)" other)

let spec_to_json (s : Flows.spec) =
  Json.Obj
    [ ("tech", tech_to_json s.Flows.tech);
      ("buffers", Json.List (Array.to_list (Array.map buffer_to_json s.Flows.buffers)));
      ("algo", algo_to_json s.Flows.algo) ]

let spec_of_json j =
  let* tech = Result.bind (field "tech" j) tech_of_json in
  let* buffers = Result.bind (field "buffers" j) buffers_of_json in
  let* algo = Result.bind (field "algo" j) algo_of_json in
  Ok { Flows.tech; buffers; algo }

(* ------------------------------------------------------------------ *)
(* Cache key                                                           *)
(* ------------------------------------------------------------------ *)

let request_key (spec : Flows.spec) net =
  let spec_text = Json.to_string (spec_to_json spec) in
  Digest.to_hex
    (Digest.string (spec_text ^ "\x00" ^ Net_io.fingerprint net))

(* ------------------------------------------------------------------ *)
(* Shared message pieces                                               *)
(* ------------------------------------------------------------------ *)

let error_kind_to_string = function
  | Bad_request -> "bad-request"
  | Infeasible -> "infeasible"
  | Timeout -> "timeout"
  | Draining -> "draining"
  | Internal -> "internal"

let error_kind_of_string = function
  | "bad-request" -> Some Bad_request
  | "infeasible" -> Some Infeasible
  | "timeout" -> Some Timeout
  | "draining" -> Some Draining
  | "internal" -> Some Internal
  | _ -> None

let admin_type = function
  | Stats -> "stats"
  | Ping -> "ping"
  | Drain -> "drain"
  | Shutdown -> "shutdown"

let net_of_text text =
  match Net_io.of_string text with
  | net -> Ok net
  | exception Failure msg -> Error msg
  | exception Invalid_argument msg -> Error msg

let decode_cached j =
  match Json.to_bool j with
  | Some true -> Ok Hit
  | Some false -> Ok Miss
  | None -> Error "field \"cached\": expected a bool"

(* The v2 envelope: every frame leads with v/job/seq/type.  Single-frame
   exchanges carry seq 0. *)
let envelope ~job ~seq ty fields =
  Json.Obj
    (("v", int version)
    :: ("job", Json.Str job)
    :: ("seq", int seq)
    :: ("type", Json.Str ty)
    :: fields)

(* ------------------------------------------------------------------ *)
(* Client messages                                                     *)
(* ------------------------------------------------------------------ *)

let route_fields (r : request) =
  [ ("spec", spec_to_json r.spec); ("net", Json.Str (Net_io.to_string r.net)) ]
  @ (match r.deadline_s with None -> [] | Some d -> [ ("deadline_s", num d) ])
  @ if r.want_tree then [ ("want_tree", Json.Bool true) ] else []

let batch_fields (b : batch) =
  [ ("spec", spec_to_json b.spec);
    ("nets",
     Json.List
       (List.map
          (fun (name, net) ->
             Json.Obj
               [ ("name", Json.Str name);
                 ("net", Json.Str (Net_io.to_string net)) ])
          b.nets)) ]
  @ (match b.deadline_s with None -> [] | Some d -> [ ("deadline_s", num d) ])
  @ (if b.want_tree then [ ("want_tree", Json.Bool true) ] else [])
  @
  match b.manifest with
  | None -> []
  | Some entries ->
    [ ("manifest",
       Json.List
         (List.map
            (fun (name, fp) ->
               Json.Obj
                 [ ("name", Json.Str name); ("fingerprint", Json.Str fp) ])
            entries)) ]

let client_msg_to_json (m : client_msg) =
  match m with
  | Route r -> envelope ~job:r.job ~seq:0 "route" (route_fields r)
  | Batch b -> envelope ~job:b.job ~seq:0 "batch" (batch_fields b)
  | Admin { job; op } -> envelope ~job ~seq:0 (admin_type op) []

let decode_route_body ~job j =
  let* spec = Result.bind (field "spec" j) spec_of_json in
  let* net = Result.bind (fstr "net" j) net_of_text in
  let* deadline_s = fnum_opt "deadline_s" j in
  let* want_tree = fbool_opt ~default:false "want_tree" j in
  Ok (Route { job; spec; net; deadline_s; want_tree })

let decode_named_list ~what ~value_field decode_value j =
  match Json.to_list j with
  | None -> Error (Printf.sprintf "field %S: expected an array" what)
  | Some items ->
    let* rev =
      List.fold_left
        (fun acc item ->
           let* acc = acc in
           let* name = fstr "name" item in
           let* v = Result.bind (field value_field item) decode_value in
           Ok ((name, v) :: acc))
        (Ok []) items
    in
    Ok (List.rev rev)

let decode_batch_body ~job j =
  let* spec = Result.bind (field "spec" j) spec_of_json in
  let* nets =
    Result.bind (field "nets" j)
      (decode_named_list ~what:"nets" ~value_field:"net" (fun v ->
           match Json.to_str v with
           | Some text -> net_of_text text
           | None -> Error "field \"net\": expected a string"))
  in
  let* deadline_s = fnum_opt "deadline_s" j in
  let* want_tree = fbool_opt ~default:false "want_tree" j in
  let* manifest =
    match Json.member "manifest" j with
    | None -> Ok None
    | Some m ->
      Result.map Option.some
        (decode_named_list ~what:"manifest" ~value_field:"fingerprint"
           (fun v ->
              match Json.to_str v with
              | Some fp -> Ok fp
              | None -> Error "field \"fingerprint\": expected a string")
           m)
  in
  Ok (Batch { job; spec; nets; deadline_s; want_tree; manifest })

let client_msg_of_v2 j =
  let* job = fstr "job" j in
  let* ty = fstr "type" j in
  match ty with
  | "stats" -> Ok (Admin { job; op = Stats })
  | "ping" -> Ok (Admin { job; op = Ping })
  | "drain" -> Ok (Admin { job; op = Drain })
  | "shutdown" -> Ok (Admin { job; op = Shutdown })
  | "route" -> decode_route_body ~job j
  | "batch" -> decode_batch_body ~job j
  | other ->
    Error
      (Printf.sprintf
         "message type %S (route|batch|stats|ping|drain|shutdown)" other)

(* v1 compatibility: the pre-envelope grammar.  [id] becomes [job];
   admin frames carried no correlation id, so they map to job "". *)
let client_msg_of_v1 j =
  let* ty = fstr "type" j in
  match ty with
  | "stats" -> Ok (Admin { job = ""; op = Stats })
  | "ping" -> Ok (Admin { job = ""; op = Ping })
  | "drain" -> Ok (Admin { job = ""; op = Drain })
  | "shutdown" -> Ok (Admin { job = ""; op = Shutdown })
  | "route" ->
    let* job = fstr "id" j in
    decode_route_body ~job j
  | other ->
    Error
      (Printf.sprintf "message type %S (route|stats|ping|drain|shutdown)"
         other)

let client_msg_of_json j =
  let* v = fint "v" j in
  match v with
  | 1 -> Result.map (fun m -> (V1, m)) (client_msg_of_v1 j)
  | 2 -> Result.map (fun m -> (V2, m)) (client_msg_of_v2 j)
  | v ->
    Error
      (Printf.sprintf "protocol version %d unsupported (expected 1 or %d)" v
         version)

(* ------------------------------------------------------------------ *)
(* Server messages                                                     *)
(* ------------------------------------------------------------------ *)

let status_to_json (s : net_status) =
  match s with
  | Routed { cached; metrics } ->
    Json.Obj
      [ ("state", Json.Str "routed");
        ("cached", Json.Bool (match cached with Hit -> true | Miss -> false));
        ("metrics", Metrics.to_json metrics) ]
  | Unchanged -> Json.Obj [ ("state", Json.Str "unchanged") ]
  | Net_failed { kind; message } ->
    Json.Obj
      [ ("state", Json.Str "failed");
        ("kind", Json.Str (error_kind_to_string kind));
        ("message", Json.Str message) ]
  | Cancelled -> Json.Obj [ ("state", Json.Str "cancelled") ]

let status_of_json j =
  let* state = fstr "state" j in
  match state with
  | "routed" ->
    let* cached = Result.bind (field "cached" j) decode_cached in
    let* metrics = Result.bind (field "metrics" j) Metrics.of_json in
    Ok (Routed { cached; metrics })
  | "unchanged" -> Ok Unchanged
  | "failed" ->
    let* kind_s = fstr "kind" j in
    let* kind =
      match error_kind_of_string kind_s with
      | Some k -> Ok k
      | None -> Error (Printf.sprintf "error kind %S" kind_s)
    in
    let* message = fstr "message" j in
    Ok (Net_failed { kind; message })
  | "cancelled" -> Ok Cancelled
  | other ->
    Error
      (Printf.sprintf "net state %S (routed|unchanged|failed|cancelled)" other)

let summary_to_json (s : summary) =
  Json.Obj
    [ ("total", int s.total);
      ("routed", int s.routed);
      ("hits", int s.hits);
      ("unchanged", int s.unchanged);
      ("failed", int s.failed);
      ("cancelled", int s.cancelled);
      ("wall_s", num s.wall_s) ]

let summary_of_json j =
  let* total = fint "total" j in
  let* routed = fint "routed" j in
  let* hits = fint "hits" j in
  let* unchanged = fint "unchanged" j in
  let* failed = fint "failed" j in
  let* cancelled = fint "cancelled" j in
  let* wall_s = fnum "wall_s" j in
  Ok { total; routed; hits; unchanged; failed; cancelled; wall_s }

let server_msg_to_v2_json (m : server_msg) =
  match m with
  | Reply { job; cached; metrics } ->
    envelope ~job ~seq:0 "reply"
      [ ("cached", Json.Bool (match cached with Hit -> true | Miss -> false));
        ("metrics", Metrics.to_json metrics) ]
  | Progress { job; seq; index; name; status } ->
    envelope ~job ~seq "progress"
      [ ("index", int index);
        ("name", Json.Str name);
        ("status", status_to_json status) ]
  | Batch_done { job; seq; summary } ->
    envelope ~job ~seq "batch-done" [ ("summary", summary_to_json summary) ]
  | Refused { job; kind; message } ->
    envelope ~job ~seq:0 "error"
      [ ("kind", Json.Str (error_kind_to_string kind));
        ("message", Json.Str message) ]
  | Stats_reply { job; stats } -> envelope ~job ~seq:0 "stats" [ ("stats", stats) ]
  | Pong { job } -> envelope ~job ~seq:0 "pong" []
  | Admin_ok { job; what } ->
    envelope ~job ~seq:0 "ok" [ ("what", Json.Str what) ]

(* Replies rendered for a v1 peer: the pre-envelope grammar.  The v1
   grammar cannot express multi-frame kinds — and a v1 peer cannot have
   sent the [Batch] that produces them — so asking for one is a caller
   bug, not a protocol state. *)
let server_msg_to_v1_json (m : server_msg) =
  let v1 ty fields = Json.Obj (("v", int 1) :: ("type", Json.Str ty) :: fields) in
  match m with
  | Reply { job; cached; metrics } ->
    v1 "reply"
      [ ("id", Json.Str job);
        ("cached", Json.Bool (match cached with Hit -> true | Miss -> false));
        ("metrics", Metrics.to_json metrics) ]
  | Refused { job; kind; message } ->
    v1 "error"
      ((if String.equal job "" then [] else [ ("id", Json.Str job) ])
      @ [ ("kind", Json.Str (error_kind_to_string kind));
          ("message", Json.Str message) ])
  | Stats_reply { stats; _ } -> v1 "stats" [ ("stats", stats) ]
  | Pong _ -> v1 "pong" []
  | Admin_ok { what; _ } -> v1 "ok" [ ("what", Json.Str what) ]
  | Progress _ | Batch_done _ ->
    invalid_arg "Wire.encode_server: v1 cannot carry multi-frame replies"

let server_msg_of_v2 j =
  let* job = fstr "job" j in
  let* ty = fstr "type" j in
  match ty with
  | "pong" -> Ok (Pong { job })
  | "ok" ->
    let* what = fstr "what" j in
    Ok (Admin_ok { job; what })
  | "stats" ->
    let* stats = field "stats" j in
    Ok (Stats_reply { job; stats })
  | "reply" ->
    let* cached = Result.bind (field "cached" j) decode_cached in
    let* metrics = Result.bind (field "metrics" j) Metrics.of_json in
    Ok (Reply { job; cached; metrics })
  | "progress" ->
    let* seq = fint "seq" j in
    let* index = fint "index" j in
    let* name = fstr "name" j in
    let* status = Result.bind (field "status" j) status_of_json in
    Ok (Progress { job; seq; index; name; status })
  | "batch-done" ->
    let* seq = fint "seq" j in
    let* summary = Result.bind (field "summary" j) summary_of_json in
    Ok (Batch_done { job; seq; summary })
  | "error" ->
    let* kind_s = fstr "kind" j in
    let* kind =
      match error_kind_of_string kind_s with
      | Some k -> Ok k
      | None -> Error (Printf.sprintf "error kind %S" kind_s)
    in
    let* message = fstr "message" j in
    Ok (Refused { job; kind; message })
  | other ->
    Error
      (Printf.sprintf
         "message type %S (reply|progress|batch-done|error|stats|pong|ok)"
         other)

let server_msg_of_v1 j =
  let* ty = fstr "type" j in
  match ty with
  | "pong" -> Ok (Pong { job = "" })
  | "ok" ->
    let* what = fstr "what" j in
    Ok (Admin_ok { job = ""; what })
  | "stats" ->
    let* stats = field "stats" j in
    Ok (Stats_reply { job = ""; stats })
  | "reply" ->
    let* job = fstr "id" j in
    let* cached = Result.bind (field "cached" j) decode_cached in
    let* metrics = Result.bind (field "metrics" j) Metrics.of_json in
    Ok (Reply { job; cached; metrics })
  | "error" ->
    let* kind_s = fstr "kind" j in
    let* kind =
      match error_kind_of_string kind_s with
      | Some k -> Ok k
      | None -> Error (Printf.sprintf "error kind %S" kind_s)
    in
    let* message = fstr "message" j in
    let job = Option.value (Option.bind (Json.member "id" j) Json.to_str) ~default:"" in
    Ok (Refused { job; kind; message })
  | other ->
    Error (Printf.sprintf "message type %S (reply|error|stats|pong|ok)" other)

let server_msg_of_json j =
  let* v = fint "v" j in
  match v with
  | 1 -> Result.map (fun m -> (V1, m)) (server_msg_of_v1 j)
  | 2 -> Result.map (fun m -> (V2, m)) (server_msg_of_v2 j)
  | v ->
    Error
      (Printf.sprintf "protocol version %d unsupported (expected 1 or %d)" v
         version)

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let decode_client text =
  match Json.of_string text with
  | j -> client_msg_of_json j
  | exception Json.Parse_error msg -> Error msg

let decode_server text =
  match Json.of_string text with
  | j -> server_msg_of_json j
  | exception Json.Parse_error msg -> Error msg

let encode_client m = Json.to_string (client_msg_to_json m)

let encode_server ?(proto = V2) m =
  match proto with
  | V2 -> Json.to_string (server_msg_to_v2_json m)
  | V1 -> Json.to_string (server_msg_to_v1_json m)

(* ------------------------------------------------------------------ *)
(* Framing                                                             *)
(* ------------------------------------------------------------------ *)

let default_max_frame = 64 * 1024 * 1024

type read_error =
  | Closed            (* orderly EOF before any byte of a frame *)
  | Truncated         (* EOF mid-frame *)
  | Oversized of int  (* declared length beyond the limit *)

let rec write_all fd buf off len =
  if len > 0 then begin
    let n = Unix.write fd buf off len in
    write_all fd buf (off + n) (len - n)
  end

let write_frame fd payload =
  let n = String.length payload in
  let buf = Bytes.create (4 + n) in
  Bytes.set_int32_be buf 0 (Int32.of_int n);
  Bytes.blit_string payload 0 buf 4 n;
  write_all fd buf 0 (4 + n)

(* [read_exact] distinguishes EOF-at-a-frame-boundary (orderly close)
   from EOF mid-frame (peer died); EINTR restarts. *)
let read_exact fd buf len =
  let rec go off =
    if off >= len then Ok ()
    else
      match Unix.read fd buf off (len - off) with
      | 0 -> if off = 0 then Error Closed else Error Truncated
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

let read_frame ?(max_frame = default_max_frame) fd =
  let hdr = Bytes.create 4 in
  let* () = read_exact fd hdr 4 in
  let len = Int32.to_int (Bytes.get_int32_be hdr 0) in
  if len < 0 || len > max_frame then Error (Oversized len)
  else begin
    let buf = Bytes.create len in
    match read_exact fd buf len with
    | Ok () -> Ok (Bytes.unsafe_to_string buf)
    | Error Closed | Error Truncated -> Error Truncated (* EOF after header *)
    | Error (Oversized _ as e) -> Error e
  end
