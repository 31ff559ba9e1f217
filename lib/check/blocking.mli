(** C5 — blocking-under-lock: known-blocking calls inside held-lock
    regions, including [Condition.wait] on a different mutex than the
    one the region holds.  The [blocking-ok] waiver token suppresses
    per line. *)

val rule : string

val check :
  waivers:Waivers.t -> Concur.project -> Finding.t list
