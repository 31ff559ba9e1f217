(** Finding baselines: a committed inventory of accepted findings so CI
    fails only on {e new} findings.

    Matching ignores line/column — the (rule, file, message) triple is
    stable under unrelated edits.  Multiplicity counts: an entry with
    [count = n] absorbs at most [n] identical findings. *)

type entry = {
  rule : string;
  file : string;
  message : string;
  count : int;
}

type t = entry list

(** Aggregate findings into baseline entries (first-seen order, counts
    merged). *)
val of_findings : Finding.t list -> t

(** Render in the committed one-entry-per-line layout. *)
val to_string : t -> string

(** Parse a baseline.  Accepts both the native format written by
    {!to_string} and a SARIF 2.1 log (runs[].results[]), so a CI SARIF
    artifact can be promoted to a baseline verbatim. *)
val of_string : string -> (t, string) result

val load : string -> (t, string) result

val save : string -> t -> unit

(** [apply_detailed baseline findings] drops findings absorbed by the
    baseline, in order (findings beyond an entry's [count] are kept),
    and splits the baseline by what it absorbed: [(survivors, stale,
    live)] where [stale] holds each entry's unconsumed residue (count =
    findings it no longer matches — prune these) and [live] the
    consumed part (count = findings it still absorbs — the pruned
    baseline to rewrite).  [stale] and [live] partition the budget: an
    entry can appear in both with its count split. *)
val apply_detailed : t -> Finding.t list -> Finding.t list * t * t
