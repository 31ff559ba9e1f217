(** C2 — exception flow out of task closures (rule [task-exn-escape],
    Warning).

    Flags raising primitives ([raise], [failwith], ...), partial
    accessors ([Option.get], [List.hd], [Hashtbl.find], ...) and
    [assert] inside a pool task closure when no enclosing [try] or
    [match ... with exception] in that closure covers them: the
    exception surfaces only at await.  Lines waived with
    [check: exn-flow] are exempt.  Intraprocedural only. *)

val rule : string

val check : waivers:Waivers.t -> Cmt_load.t list -> Finding.t list
