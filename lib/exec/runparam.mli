(** Startup-only GC tuning for parallel runs.

    OCaml 5 minor collections are stop-the-world across every running
    domain, so allocation-heavy parallel work under the stock 256k-word
    minor heap is barrier-bound (measured 3.4x on the Table-1 bench at
    4 domains).  The minor-heap reservation is fixed when the runtime
    boots and {e cannot} be grown by [Gc.set] afterwards — it only
    changes what [Gc.get] reports.  The working lever is
    [OCAMLRUNPARAM=s=<words>] in the environment at exec time. *)

(** [ensure_minor_heap ?words ()] re-execs the current binary with
    [OCAMLRUNPARAM] augmented by [s=words] (default 4M words = 32 MB
    per domain) unless an [s=] entry is already present.  Call it at
    startup, before spawning domains, when about to run parallel work.
    Returns normally when the setting is already in place or when exec
    fails; never returns when the re-exec happens. *)
val ensure_minor_heap : ?words:int -> unit -> unit
