(** Fixed-size domain pool: futures, deterministic parallel map,
    per-task timeouts and telemetry.

    Built on [Domain] + [Mutex]/[Condition] only (no domainslib).  The
    design rules:

    - {b Determinism.}  {!map} returns results in input order and, for
      an effect-free [f], its output is bit-identical to [List.map f]
      for every pool size and chunk size.  Scheduling only decides
      {e when} each element is computed, never {e what}.
    - {b Helping await.}  {!await} first drains queued tasks itself
      before blocking, so a task that submits subtasks and awaits them
      can never deadlock the pool, for any pool size (including 0
      worker domains, where the caller executes everything inline at
      await time).
    - {b Exception transparency.}  An exception raised inside a task is
      captured with its backtrace and re-raised at {!await}.
    - {b Timeouts abandon, they do not kill.}  {!await_timeout} on an
      expired task returns {!Timed_out}; a queued task is cancelled in
      place, a running one keeps its domain until it finishes and its
      result is discarded.  OCaml offers no safe preemption, so a
      budget bounds the {e caller's} wait, not the worker's work. *)

type t

(** [create ~domains ()] spawns [domains] worker domains (default
    [Domain.recommended_domain_count ()]).  [domains = 0] is legal: the
    pool then executes tasks in the caller via the helping {!await}.
    Raises [Invalid_argument] outside [0, 512].

    Allocation-heavy parallel work wants a larger minor heap than the
    stock 256k words — OCaml 5 minor collections stop {e all} domains —
    and that can only be set at process startup; see
    {!Runparam.ensure_minor_heap}. *)
val create : ?domains:int -> unit -> t

(** Worker-domain count given to {!create}. *)
val size : t -> int

(** [shutdown t] drains the queue, joins the workers and rejects any
    later {!submit}.  Idempotent. *)
val shutdown : t -> unit

(** [with_pool ?domains f] runs [f pool] and shuts the pool down on the
    way out, exception or not. *)
val with_pool : ?domains:int -> (t -> 'a) -> 'a

(** {1 Futures} *)

type 'a future

(** Raised by {!await} on a future whose task was cancelled before it
    started. *)
exception Task_cancelled

(** [submit t f] enqueues [f] and returns its future.  Raises
    [Invalid_argument] after {!shutdown}. *)
val submit : t -> (unit -> 'a) -> 'a future

(** [await fut] blocks until the task finishes, helping to execute
    other queued tasks while it waits.  Re-raises the task's exception
    with its original backtrace; raises {!Task_cancelled} for a future
    killed by {!cancel}. *)
val await : 'a future -> 'a

(** [cancel fut] prevents a still-queued task from ever running; [true]
    iff it was removed before any domain picked it up (a started task
    cannot be stopped). *)
val cancel : 'a future -> bool

type 'a outcome =
  | Done of 'a
  | Timed_out
  | Failed of exn

(** [await_timeout ~timeout_s fut] waits at most [timeout_s] monotonic
    seconds (sleep-polling, never stealing work — stealing an unbounded
    task here would overshoot the deadline).  On expiry the task is
    cancelled if still queued, abandoned if running, and the pool's
    [timed_out] counter is bumped. *)
val await_timeout : timeout_s:float -> 'a future -> 'a outcome

(** [run_timeout t ~timeout_s f] = [await_timeout ~timeout_s (submit t f)]. *)
val run_timeout : t -> timeout_s:float -> (unit -> 'a) -> 'a outcome

(** {1 Deterministic parallel map} *)

(** [map ?chunk t f xs] applies [f] to every element of [xs] in
    parallel, [chunk] elements per task (default: input split in about
    4 tasks per executor), and returns the results in input order.  For
    effect-free [f] the result is bit-identical to [List.map f xs].  If
    any element raises, the first failure in input-chunk order is
    re-raised after all chunks settle.  Raises [Invalid_argument] on
    [chunk < 1]. *)
val map : ?chunk:int -> t -> ('a -> 'b) -> 'a list -> 'b list

(** {1 Telemetry} *)

type domain_stat = {
  tasks : int;     (** tasks executed on this slot *)
  busy_s : float;  (** seconds spent inside task bodies *)
}

type stats = {
  domains : int;           (** worker-domain count *)
  age_s : float;           (** seconds since {!create} *)
  submitted : int;
  completed : int;         (** finished without raising *)
  failed : int;            (** finished by raising *)
  cancelled : int;         (** killed while queued *)
  timed_out : int;         (** {!await_timeout} expiries *)
  total_queue_wait_s : float;
  max_queue_wait_s : float;
  total_run_s : float;
  max_run_s : float;
  queue_wait_hist : int array;
      (** log-decade histogram, 9 buckets in seconds: [< 1us, < 10us,
          ..., < 10 s, >= 10 s]; index [i] counts durations in decade
          [i] *)
  run_hist : int array;         (** same buckets as [queue_wait_hist] *)
  per_domain : domain_stat array;
      (** length [domains + 1]; the extra final slot counts tasks
          executed by helping/awaiting callers rather than workers *)
}

(** Consistent snapshot of the pool's counters. *)
val stats : t -> stats

val pp_stats : Format.formatter -> stats -> unit
