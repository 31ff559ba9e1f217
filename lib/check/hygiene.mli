(** C10-C16 — per-unit code hygiene on the typedtree, each rule waived
    by a same-line [check: <rule name>] comment:

    - C10 [poly-compare]: [Stdlib.(=)], [(<>)] or [compare] whose
      instantiated, expanded first-argument type is not a scalar
      ([int], [char], [bool], [unit], [float], [string], [bytes],
      [int32], [int64], [nativeint]); a type variable is non-scalar.
    - C11 [raising-accessor]: [Hashtbl.find], [List.hd], [List.nth] or
      [Option.get] in a [lib/] unit, through local module aliases too.
    - C12 [physical-eq]: [Stdlib.(==)] or [(!=)].
    - C13 [error-prefix]: a [failwith]/[invalid_arg] whose leading
      string literal (direct, left of [^], or a sprintf format) lacks
      a ["Module.function:"] prefix.
    - C14 [catch-all]: a [try] handler whose pattern is [_], or an
      or-pattern containing [_].
    - C15 [mli-sibling]: a [lib/] unit with an implementation and no
      interface (dune's alias units excepted).
    - C16 [builder-create-in-loop]: [Curve.Builder.create] inside a
      [for]/[while] body, an iter/fold callback or a [let rec] body in
      [lib/core], [lib/lttree] or [lib/ginneken]. *)

val poly_compare : string

val raising_accessor : string

val physical_eq : string

val error_prefix : string

val catch_all : string

val mli_sibling : string

val builder_create_in_loop : string

(** Run the rules [active] selects over every non-alias unit.  Rebuilds
    typing environments for C10 from each unit's recorded load path,
    which is resolved against the current directory (the build root,
    for a dune build). *)
val check :
  waivers:Waivers.t -> active:(string -> bool) -> Cmt_load.t list ->
  Finding.t list
