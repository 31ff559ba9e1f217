(** C4 — lock-order: cycles and committed-order inversions in the
    project lock graph (see {!Concur.edges}). *)

val rule : string

(** Parse a lock-order spec: one lock name per line, outermost first,
    ['#'] comments and blank lines ignored; duplicate names rejected. *)
val spec_of_string : string -> (string list, string) result

val load_spec : string -> (string list, string) result

(** [check ~waivers ~spec project]: error findings for every edge that
    closes a cycle, and for every non-cycle edge inverting [spec]'s
    ranking (edges with an unranked endpoint are cycle-checked only).
    The [lock-order] waiver token suppresses per line. *)
val check :
  waivers:Waivers.t ->
  spec:string list ->
  Concur.project ->
  Finding.t list
