(** C6 — fd-leak: every fd minted by a Unix producer (or a
    returns-fd-summarized project function) must reach [Unix.close]
    with its can-raise uses protected, or escape into a structure,
    a non-Unix call or the return value.  The [fd-escape] waiver token
    suppresses per line. *)

val rule : string

val check :
  waivers:Waivers.t -> Concur.project -> Finding.t list
