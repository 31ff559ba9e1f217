(** Typedtree path utilities for the typed rules: normalization of
    dune-mangled unit names, local module-alias expansion, suffix
    matching.

    Paths through functor applications resolve to [None] everywhere —
    a documented false negative of the analyzer (DESIGN.md,
    "Correctness tooling"). *)

(** Path components root-first; [None] through functor applications. *)
val flatten : Path.t -> string list option

val head_ident : Path.t -> Ident.t option

(** ["Merlin_exec__Pool"] to [["Merlin_exec"; "Pool"]]. *)
val split_dune : string -> string list

(** {!split_dune} applied to every component. *)
val normalize : string list -> string list

(** Local [module X = Global.Path] aliases of one unit, keyed by binder
    ident (so shadowing cannot cross-talk). *)
type alias_env

(** Collect every local module alias in a structure (nested included). *)
val alias_env_of_structure : Typedtree.structure -> alias_env

(** Resolve a reference to normalized global components: global heads
    directly, local heads through the alias environment; plain locals
    are [None]. *)
val resolve : alias_env -> Path.t -> string list option

val has_suffix : suffix:string list -> string list -> bool

val to_string : string list -> string
