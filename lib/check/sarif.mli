(** SARIF 2.1.0 rendering.  The output round-trips through
    {!Baseline}, so a CI SARIF artifact can be promoted to a baseline
    file verbatim. *)

(** The SARIF 2.1.0 log, serialized, newline-terminated. *)
val render :
  tool_name:string ->
  tool_version:string ->
  Finding.t list ->
  string
