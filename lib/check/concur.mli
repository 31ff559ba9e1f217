(** Shared concurrency machinery for the C4-C6 rules: per-project
    function inventory, lock naming, held-lock regions, and the
    interprocedural summaries (locks a call may acquire, the blocking
    primitive a call may reach, functions returning fresh fds).

    Lock names are project-stable: field locks are named from their
    record type ([Pool.sm], [Lru.lock], [Server.lock], [Pool.future.fm]),
    module-level mutexes from their path, local idents as [Unit.name];
    unnameable mutexes (parameters, complex expressions) produce no
    site — a summary miss, never a wrong edge. *)

type fn = {
  fn_unit : string;
  fn_unit_name : string;
  fn_name : string;
  fn_key : string;
  fn_params : (Ident.t * bool) list;
  fn_expr : Typedtree.expression;
  fn_loc : Location.t;
  fn_env : Pathx.alias_env;
  mutable fn_protect_like : (int * int) option;
  mutable fn_acquires_sites : acquire list;
  mutable fn_regions : region list;
  mutable fn_blocking : bsite list;
  mutable fn_calls : (fn * Location.t) list;
  mutable fn_acquires : Set.Make(String).t;
  mutable fn_blocks : bsite option;
  mutable fn_returns_fd : bool;
}

and acquire = { a_lock : string; a_loc : Location.t; a_via : string }

and region = {
  g_lock : string;
  g_file : string;
  g_open : int;
  g_start : int;
  g_end : int;
}

and bsite = { s_prim : string; s_loc : Location.t; s_wait_on : string option }

type project

(** Inventory every unit's top-level functions, detect protect-like
    helpers, extract sites and run the three interprocedural
    fixpoints. *)
val build : Cmt_load.t list -> project

val fns : project -> fn list

(** An acquisition of [e_lock] (directly or through a call summary)
    while [e_held] is held. *)
type edge = {
  e_held : string;
  e_lock : string;
  e_loc : Location.t;
  e_via : string;
}

val edges : project -> edge list

(** A known-blocking call inside a held-lock region.  [b_wait_on] is
    [Condition.wait]'s own mutex when nameable.  [b_via] names the
    project function called at [b_loc] when the primitive [b_prim] is
    reached through it (and [b_wait_on] is then the reached wait's
    mutex) rather than called in place. *)
type blocking_site = {
  b_prim : string;
  b_loc : Location.t;
  b_held : string list;
  b_wait_on : string option;
  b_via : string option;
}

val blocking_sites : project -> blocking_site list

(** [producer_of project fn e]: display name when the application [e]
    yields a fresh fd (Unix producer table, or a call to a function the
    returns-fd summary covers). *)
val producer_of :
  project -> fn -> Typedtree.expression -> string option

(** Path suffix of [Unix.close], shared with the C6 rule. *)
val close_suffix : string list

(** Resolved-or-syntactic components of a reference, suffix-matchable
    (fixture stub modules included). *)
val comps_of : Pathx.alias_env -> Path.t -> string list option

val suffixed : Pathx.alias_env -> Path.t -> string list -> bool

(** Resolve a reference made from [unit_name] under a module-alias
    environment to a project function: plain local idents through the
    per-unit ident table, global or aliased paths through the key
    table.  The purity layer (C7-C9) resolves references from inside
    arbitrary closures with this, where no enclosing inventory function
    is at hand. *)
val resolve_ref :
  project -> unit_name:string -> Pathx.alias_env -> Path.t -> fn option
