(** C1 — domain-unsafe capture (rule [domain-unsafe-capture], Error).

    Flags mutations, inside a task closure handed to the pool, of
    mutable state created outside that closure: refs, arrays, bytes,
    Hashtbl, Queue, Stack, Buffer and mutable record fields.  Exempt:
    mutations inside a [Mutex.protect] region, the pool implementation
    itself (lib/exec), [Atomic] (safe by construction), and lines
    waived with [check: domain-safe]. *)

val rule : string

val check : waivers:Waivers.t -> Cmt_load.t list -> Finding.t list
