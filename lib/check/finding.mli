(** Analyzer findings: one rule violation at one source location. *)

type severity = Error | Warning

val severity_to_string : severity -> string

type t = {
  file : string;
  line : int;  (** 1-based *)
  col : int;   (** 0-based, matching compiler diagnostics *)
  rule : string;
  severity : severity;
  message : string;
}

val make :
  file:string -> line:int -> col:int -> rule:string -> severity:severity ->
  string -> t

val is_error : t -> bool

(** Build a finding from a source location (uses [loc_start]). *)
val of_location :
  rule:string -> severity:severity -> message:string -> Location.t -> t

(** File, then position, then rule — for stable reports. *)
val compare_order : t -> t -> int

(** [file:line:col [rule] message] *)
val to_text : t -> string

val to_json : t -> string
