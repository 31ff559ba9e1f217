(** Minimal JSON tree, parser and printer — the repository's single
    JSON layer (analyzer baselines and reports, the {!Metrics} wire
    format, bench emitters, the serving protocol), with no external
    dependency.  Finite numbers print as the shortest decimal that
    parses back to the same float, so documents survive
    encode→decode→encode byte-identically. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(** Raised by {!of_string} on malformed input, with a position-carrying
    message. *)
exception Parse_error of string

(** Serialize compactly (no trailing newline). *)
val to_string : t -> string

(** Parse a complete JSON document.  Trailing non-whitespace is an
    error.  Raises {!Parse_error}. *)
val of_string : string -> t

(** [member k j] is the field [k] of object [j], if any. *)
val member : string -> t -> t option

val to_list : t -> t list option

val to_str : t -> string option

val to_bool : t -> bool option

val to_num : t -> float option
