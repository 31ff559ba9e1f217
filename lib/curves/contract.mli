(** Runtime invariant contracts for solution curves.

    The static analysis rules (see DESIGN.md "Correctness tooling") protect
    the code that maintains curve invariants; this module checks the
    invariants themselves at runtime.  Enabled when the process starts
    with [MERLIN_CHECK=1] (or via {!set_enabled}); disabled it costs one
    branch per curve operation.

    The checked invariants are the ones {!Curve} relies on:
    {ol {- solutions strictly sorted by {!Solution.compare_key};}
        {- pairwise non-inferior (Definition 6's frontier property).}} *)

(** Programmatic override, used by tests. *)
val set_enabled : bool -> unit

(** [check ~name sols] returns [sols]; when enabled, first asserts both
    invariants and raises [Invalid_argument] naming [name] (the curve
    operation) on a violation.  O(n²) when enabled. *)
val check : name:string -> 'a Solution.t list -> 'a Solution.t list

(** Array flavour of {!check}, used by {!Curve.Builder.build} so
    verification never round-trips through a list.  O(n log n) when
    enabled. *)
val check_arr : name:string -> 'a Solution.t array -> 'a Solution.t array
