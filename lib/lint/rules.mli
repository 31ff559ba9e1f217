(** The project rule set, R1–R7 (see DESIGN.md "Correctness tooling").

    - R1 [poly-compare]: no polymorphic [=]/[<>]/[compare] on structured
      data (syntactic check on the untyped parsetree).
    - R2 [raising-accessor]: no [Hashtbl.find]/[List.hd]/[List.nth]/
      [Option.get] in [lib/].
    - R3 [physical-eq]: no [==]/[!=] without a same-line
      [lint: physical-eq] waiver.
    - R4 [error-prefix]: [failwith]/[invalid_arg] messages start with
      ["Module.function:"].
    - R5 [catch-all]: no [try ... with _ ->].
    - R6 [mli-sibling]: every [lib/**/*.ml] has a sibling [.mli].
    - R7 [builder-create-in-loop]: no [Curve.Builder.create] inside a
      loop, an iter/fold callback or a [let rec] body in [lib/core],
      [lib/lttree] or [lib/ginneken].

    Every rule accepts a same-line comment waiver carrying
    [lint: <rule-name>]; the driver reports waivers that suppress
    nothing as [stale-waiver] warnings (see {!Driver.lint_string}). *)

module Poly_compare : Rule.S

module Raising_accessor : Rule.S

module Physical_eq : Rule.S

module Error_prefix : Rule.S

module Catch_all : Rule.S

module Mli_sibling : Rule.S

val all : (module Rule.S) list
