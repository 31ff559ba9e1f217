(** C3 — dead exports (rule [dead-export], Warning).

    Flags values exported by a library .mli that no other compilation
    unit references anywhere in the project.  Entry-point units
    (bin/bench/test/examples) are roots, not targets; dune alias units
    and [_]-prefixed names are skipped; a same-line
    [check: dead-export] waiver in the .mli suppresses one export. *)

val rule : string

val check : waivers:Waivers.t -> Cmt_load.t list -> Finding.t list
