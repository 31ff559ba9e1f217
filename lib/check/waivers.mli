(** Waivers: a same-line [check: <token>] comment suppresses one rule
    on that line; waivers that suppress nothing, or name no rule, are
    reported as [stale-waiver] warnings. *)

(** The tokens the rules consume: [domain-safe] (C1), [exn-flow] (C2),
    [dead-export] (C3), [lock-order] (C4), [blocking-ok] (C5),
    [fd-escape] (C6), [nondet-ok] (C7-C9), and for C10-C16 the rule
    name itself ([poly-compare] ... [builder-create-in-loop]). *)
val tokens : string list

type t

val create : unit -> t

(** Scan a source file for waiver marks (idempotent; missing files scan
    as empty). *)
val register_file : t -> string -> unit

(** [waived t ~file ~line ~token] is true when the line carries the
    token's waiver; consumption is recorded for {!stale}. *)
val waived : t -> file:string -> line:int -> token:string -> bool

(** Warning findings for every waiver with an unknown token, and every
    waiver for an [active] token never consumed by a rule,
    source-ordered.  Call after all rules ran.  [active] restricts the
    staleness audit to the tokens of the rules this run executed;
    defaults to the full list. *)
val stale : ?active:string list -> t -> Finding.t list
