(** C7: a nondeterministic source (direct, or through the call graph)
    reachable from a task-submission closure; waive deliberate
    telemetry with a same-line [check: nondet-ok]. *)

val rule : string

val check :
  waivers:Waivers.t ->
  purity:Purity.t ->
  Cmt_load.t list ->
  Finding.t list
