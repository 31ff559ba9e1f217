(** C8: a nondeterministic value (direct or through a tainted local
    binding) flows into a cache/request key — [Wire.request_key],
    [Lru.find]/[Lru.add] keys, [Net_io.fingerprint],
    [Scheduler.schedule ~key].  Error severity: an impure key is
    always a bug. *)

val rule : string

val check :
  waivers:Waivers.t ->
  purity:Purity.t ->
  Cmt_load.t list ->
  Finding.t list
