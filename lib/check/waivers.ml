(* Waivers: a same-line comment carrying [check: <token>] suppresses
   one rule on that line, and a line can carry several.  Waivers are
   audited — a waiver that suppressed nothing, or names no rule, is
   itself reported, so waivers cannot rot when the code under them is
   fixed or moves.

   The opener is assembled from pieces so this very file can never be
   mistaken for carrying a waiver. *)

let opener = "(* " ^ "check: "

let tokens =
  [ "domain-safe"; "exn-flow"; "dead-export"; "lock-order"; "blocking-ok";
    "fd-escape"; "nondet-ok"; "poly-compare"; "raising-accessor";
    "physical-eq"; "error-prefix"; "catch-all"; "mli-sibling";
    "builder-create-in-loop" ]

let is_token_char c =
  match c with 'a' .. 'z' | '0' .. '9' | '-' -> true | _ -> false

let token_at line i =
  let n = String.length line in
  let rec stop j = if j < n && is_token_char line.[j] then stop (j + 1) else j in
  let j = stop i in
  if j > i then Some (String.sub line i (j - i)) else None

let scan text =
  let on = String.length opener in
  let marks = ref [] in
  List.iteri
    (fun i line ->
       let n = String.length line in
       let rec from pos =
         if pos + on > n then ()
         else if String.equal (String.sub line pos on) opener then (
           (match token_at line (pos + on) with
            | Some token -> marks := (i + 1, token) :: !marks
            | None -> ());
           from (pos + on))
         else from (pos + 1)
       in
       from 0)
    (String.split_on_char '\n' text);
  List.rev !marks

type t = {
  files : (string, (int * string) list) Hashtbl.t;
  used : (string * int * string, unit) Hashtbl.t;
}

let create () = { files = Hashtbl.create 32; used = Hashtbl.create 32 }

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  text

let register_file t path =
  if not (Hashtbl.mem t.files path) then
    let marks =
      if Sys.file_exists path then
        match read_file path with
        | text -> scan text
        | exception Sys_error _ -> []
      else []
    in
    Hashtbl.replace t.files path marks

let waived t ~file ~line ~token =
  register_file t file;
  let marks = Option.value (Hashtbl.find_opt t.files file) ~default:[] in
  if
    List.exists
      (fun (l, tok) -> l = line && String.equal tok token)
      marks
  then (
    Hashtbl.replace t.used (file, line, token) ();
    true)
  else false

(* Under a --rules filter only the active rules' tokens are auditable:
   a waiver for a deselected rule suppressed nothing *this run*, which
   says nothing about the full scan.  A token no rule defines is
   reported whatever the filter.  The fold iterates in bucket order;
   the sort below makes the result source-ordered — the in-check proof
   that rule C9's required shape composes. *)
let stale ?(active = tokens) t =
  let stale_mark file (line, token) =
    let known = List.exists (String.equal token) tokens in
    let message =
      if not known then
        Some (Printf.sprintf "waiver names unknown check rule %S" token)
      else if
        List.exists (String.equal token) active
        && not (Hashtbl.mem t.used (file, line, token))
      then
        Some
          (Printf.sprintf
             "stale waiver: no %s finding on this line to suppress" token)
      else None
    in
    Option.map
      (Finding.make ~file ~line ~col:0 ~rule:"stale-waiver"
         ~severity:Finding.Warning)
      message
  in
  List.sort Finding.compare_order
    (Hashtbl.fold
       (fun file marks acc -> List.filter_map (stale_mark file) marks @ acc)
       t.files [])
