(** The routing-service daemon.

    [start] binds a Unix-domain socket (and optionally a TCP one),
    spawns an accept thread per listener and a thread per connection,
    and schedules route requests onto a {!Merlin_exec.Pool} through the
    {!Scheduler} and its two-tier {!Cache} (LRU memory plus, when
    [store_dir] is set, a persistent {!Store} that survives restarts).
    Every malformed or failing request gets a structured error reply —
    a connection only closes on unrecoverable framing damage or peer
    EOF.

    A {!Wire.Batch} request fans its nets over the pool and streams one
    {!Wire.Progress} frame per net plus a terminal {!Wire.Batch_done}
    summary; with a manifest, unchanged nets are answered
    [Unchanged] without computing (ECO).  Queued batch nets cancel on
    client disconnect or drain.

    [Drain] makes the server refuse new routes while stats/ping keep
    working and in-flight computes finish; [Shutdown] additionally
    wakes {!wait}, which closes the listeners, lets the active requests
    drain, joins the accept threads and shuts the pool down. *)

type config = {
  socket_path : string;
  tcp : (string * int) option;  (** optional [(address, port)] listener *)
  domains : int option;  (** pool size; [None] = recommended count *)
  cache_capacity : int;
  store_dir : string option;
      (** persistent cache tier; [None] = memory only *)
  default_deadline_s : float option;
      (** budget applied to requests that carry none *)
  max_frame : int;
}

(** Unix socket only, 256-entry cache, no store, no default deadline,
    {!Wire.default_max_frame}. *)
val default_config : socket_path:string -> config

type t

(** Bind, listen and serve in background threads; returns immediately.
    Raises [Unix.Unix_error] if a listener cannot be bound and
    [Invalid_argument] if [store_dir] exists and is not a directory. *)
val start : config -> t

(** Block until a [Shutdown] request (or {!stop}) arrives, then finish
    in-flight work, release the sockets and shut the pool down. *)
val wait : t -> unit

(** Programmatic shutdown: {!wait} with the stop already requested.
    Idempotent. *)
val stop : t -> unit

(** The TCP port actually bound ([config.tcp] with port 0 asks the
    kernel for an ephemeral one); [None] without a TCP listener. *)
val tcp_port : t -> int option
