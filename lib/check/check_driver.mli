(** Orchestration: artifact loading, C1-C16, waiver staleness,
    coverage guard, rendering. *)

val tool_name : string

(** (rule, severity, one-line doc) for every rule the tool can emit,
    analysis rules first. *)
val rule_docs : (string * Finding.severity * string) list

(** The short code ("C1".."C16") of an analysis rule; [None] for the
    driver-level diagnostics. *)
val rule_code : string -> string option

(** Resolve one --rules selector — a code ([C7], case-insensitive) or
    a rule name ([nondet-in-task]) — to the rule name. *)
val resolve_selector : string -> (string, string) result

(** Run the typed rules over pre-loaded units (plus the loader's own
    findings); [src_roots] are source trees guarded for cmt coverage
    ([missing-cmt]); [lock_spec] is the committed lock order, outermost
    first, for C4's inversion check (cycles are flagged regardless).
    [rules] restricts the run to those analysis rule names (resolve
    selectors first); the driver diagnostics always run, and the
    stale-waiver audit narrows to the active rules' tokens.  Sorted by
    file and position. *)
val analyze :
  ?rules:string list ->
  ?src_roots:string list ->
  ?lock_spec:string list ->
  Cmt_load.t list * Finding.t list ->
  Finding.t list

(** Load every artifact under [roots], then {!analyze}. *)
val run :
  ?rules:string list ->
  roots:string list ->
  src_roots:string list ->
  lock_spec:string list ->
  unit ->
  Finding.t list

type format = Text | Json | Sarif | Github

(** Text is one [file:line:col [rule] message] line per finding; Json
    is [{"findings":[...],"errors":N,"total":N}]; Github is one
    Actions workflow command per finding
    ([::error file=F,line=L,col=C::[rule] message]), property-escaped. *)
val render : format -> Finding.t list -> string
