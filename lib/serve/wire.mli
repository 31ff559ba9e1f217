(** Wire protocol of the routing service, version 2.

    Frames are a 4-byte big-endian payload length followed by that many
    bytes of UTF-8 JSON.  Every payload is a versioned envelope carrying
    [v], a [job] correlation id echoed on every frame of that job, a
    [seq] frame ordinal (0 on single-frame exchanges) and [type].

    Multi-frame jobs: a {!Batch} request carries a whole netlist and
    streams back one {!Progress} frame per net plus a terminal
    {!Batch_done} summary; an optional fingerprint manifest turns the
    batch into an ECO re-route where unchanged nets are answered
    {!Unchanged} without computing.  Decoders are total: a frame of
    any other version (version 1 included) or any malformed input
    yields a structured [Error], never an exception or a dead socket.

    The routing problem travels as a {!Merlin_flows.Flows.spec} plus
    the net in canonical {!Merlin_net.Net_io} text; {!request_key}
    hashes exactly those two, which makes it the cache key: it
    separates requests that could legally differ (sink order, tech,
    knobs) and nothing else. *)

(** The first component of {!decode_server}'s result, always [V2].
    perfbench destructures that pair; the benchmark change that takes
    perfbench off it (ROADMAP item 5) removes this type. *)
type proto = V2

type request = {
  job : string;  (** client-chosen, echoed in the reply *)
  spec : Merlin_flows.Flows.spec;
  net : Merlin_net.Net.t;
  deadline_s : float option;  (** per-request compute budget *)
  want_tree : bool;  (** include the routing tree in the reply *)
}

type batch = {
  job : string;
  spec : Merlin_flows.Flows.spec;  (** one spec for every net *)
  nets : (string * Merlin_net.Net.t) list;
      (** (name, net); names are echoed in progress frames *)
  deadline_s : float option;  (** per-net compute budget *)
  want_tree : bool;
  manifest : (string * string) list option;
      (** ECO mode: (name, {!Merlin_net.Net_io.fingerprint}) of the
          previously routed netlist; a net whose fingerprint still
          matches is answered {!Unchanged} without re-routing *)
}

type admin_op =
  | Stats
  | Ping
  | Drain  (** finish in-flight work, refuse new routes *)
  | Shutdown

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

(** Outcome of one net within a batch. *)
type net_status =
  | Routed of { cached : cache_status; metrics : Merlin_report.Metrics.t }
  | Unchanged  (** ECO: fingerprint matched the manifest *)
  | Net_failed of { kind : error_kind; message : string }
  | Cancelled  (** job cancelled before this net ran *)

type progress = {
  job : string;
  seq : int;  (** 1-based frame ordinal within the job's reply stream *)
  index : int;  (** position of the net in the batch request *)
  name : string;
  status : net_status;
}

type summary = {
  total : int;
  routed : int;  (** computed on the pool *)
  hits : int;  (** answered from a cache tier *)
  unchanged : int;  (** ECO skips *)
  failed : int;
  cancelled : int;
  wall_s : float;
}

type server_msg =
  | Reply of {
      job : string;
      cached : cache_status;
      metrics : Merlin_report.Metrics.t;
    }
  | Progress of progress
  | Batch_done of { job : string; seq : int; summary : summary }
  | Refused of { job : string; kind : error_kind; message : string }
      (** [job] is [""] when the defect predates knowing the job *)
  | Stats_reply of { job : string; stats : Merlin_report.Json.t }
  | Pong of { job : string }
  | Admin_ok of { job : string; what : string }

(** [request_key spec net] — hex digest identifying the routing problem;
    the cache key of both tiers. *)
val request_key : Merlin_flows.Flows.spec -> Merlin_net.Net.t -> string

val spec_to_json : Merlin_flows.Flows.spec -> Merlin_report.Json.t

val spec_of_json :
  Merlin_report.Json.t -> (Merlin_flows.Flows.spec, string) result

val error_kind_to_string : error_kind -> string

(** Always encodes version 2. *)
val encode_client : client_msg -> string

(** Accepts version 2 only; any other version is an [Error] naming
    version 2. *)
val decode_client : string -> (client_msg, string) result

val encode_server : server_msg -> string

val decode_server : string -> (proto * server_msg, string) result

(** Frame-size guard applied by readers when none is given: 64 MiB. *)
val default_max_frame : int

type read_error =
  | Closed  (** orderly EOF at a frame boundary *)
  | Truncated  (** EOF mid-frame *)
  | Oversized of int  (** declared length beyond the limit *)

val write_frame : Unix.file_descr -> string -> unit

val read_frame :
  ?max_frame:int -> Unix.file_descr -> (string, read_error) result
