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

(** [check ~name req load area] returns when disabled; when enabled, it
    asserts both invariants over the columns of a curve (point [i] is
    ([req.(i)], [load.(i)], [area.(i)])) and raises [Invalid_argument]
    naming [name] (the curve operation) on a violation.  Every
    {!Curve.Builder.build} runs it.  O(n log n) when enabled, through
    its own staircase sweep, written apart from the builder's so it can
    catch the builder's bugs. *)
val check : name:string -> floatarray -> floatarray -> floatarray -> unit
