(* Minimal JSON tree, parser and printer — the single JSON layer of
   the repository, shared by the analyzer's baselines and reports, the
   metrics wire format (Metrics), the bench emitters and the serving
   protocol (Merlin_serve.Wire).  Depending on yojson for that would
   drag a new package into a repo that otherwise needs none. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

let error fmt = Printf.ksprintf (fun m -> raise (Parse_error m)) fmt

(* ---------- printing ---------- *)

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
       match c with
       | '"' -> Buffer.add_string buf "\\\""
       | '\\' -> Buffer.add_string buf "\\\\"
       | '\n' -> Buffer.add_string buf "\\n"
       | '\t' -> Buffer.add_string buf "\\t"
       | '\r' -> Buffer.add_string buf "\\r"
       | c when Char.code c < 0x20 ->
         Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
       | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Shortest decimal that parses back to the same float: wire payloads
   (metrics, cached replies) must survive encode -> decode -> encode
   byte-identically, which "%g"'s 6 significant digits do not. *)
let number_to_string f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else if not (Float.is_finite f) then "null"
  else begin
    let exact p =
      let s = Printf.sprintf "%.*g" p f in
      if Float.equal (float_of_string s) f then Some s else None
    in
    match exact 12 with
    | Some s -> s
    | None ->
      (match exact 15 with
       | Some s -> s
       | None -> Printf.sprintf "%.17g" f)
  end

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num f -> Buffer.add_string buf (number_to_string f)
  | Str s ->
    Buffer.add_char buf '"';
    Buffer.add_string buf (escape s);
    Buffer.add_char buf '"'
  | List xs ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i x ->
         if i > 0 then Buffer.add_char buf ',';
         write buf x)
      xs;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
         if i > 0 then Buffer.add_char buf ',';
         Buffer.add_char buf '"';
         Buffer.add_string buf (escape k);
         Buffer.add_string buf "\":";
         write buf v)
      fields;
    Buffer.add_char buf '}'

let to_string t =
  let buf = Buffer.create 256 in
  write buf t;
  Buffer.contents buf

(* ---------- parsing ---------- *)

type state = { text : string; mutable pos : int }

let peek st = if st.pos < String.length st.text then Some st.text.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\n' | '\r') ->
    advance st;
    skip_ws st
  | _ -> ()

let expect st c =
  match peek st with
  | Some c' when c' = c -> advance st
  | Some c' -> error "Json.parse: expected %c at %d, found %c" c st.pos c'
  | None -> error "Json.parse: expected %c at %d, found end of input" c st.pos

let expect_lit st lit value =
  let n = String.length lit in
  if st.pos + n <= String.length st.text && String.sub st.text st.pos n = lit
  then (
    st.pos <- st.pos + n;
    value)
  else error "Json.parse: invalid literal at %d" st.pos

(* Encode a Unicode scalar value as UTF-8 bytes.  Baselines only ever
   carry what [escape] produced (BMP at most), so surrogate pairs are
   decoded but unpaired surrogates are kept verbatim. *)
let add_utf8 buf cp =
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then (
    Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F))))
  else if cp < 0x10000 then (
    Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F))))
  else (
    Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F))))

let hex_digit c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> error "Json.parse: invalid hex digit %c" c

let parse_hex4 st =
  if st.pos + 4 > String.length st.text then
    error "Json.parse: truncated \\u escape at %d" st.pos
  else begin
    let v =
      (hex_digit st.text.[st.pos] lsl 12)
      lor (hex_digit st.text.[st.pos + 1] lsl 8)
      lor (hex_digit st.text.[st.pos + 2] lsl 4)
      lor hex_digit st.text.[st.pos + 3]
    in
    st.pos <- st.pos + 4;
    v
  end

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec loop () =
    match peek st with
    | None -> error "Json.parse: unterminated string"
    | Some '"' -> advance st
    | Some '\\' -> (
      advance st;
      (match peek st with
       | None -> error "Json.parse: unterminated escape"
       | Some 'n' -> Buffer.add_char buf '\n'; advance st
       | Some 't' -> Buffer.add_char buf '\t'; advance st
       | Some 'r' -> Buffer.add_char buf '\r'; advance st
       | Some 'b' -> Buffer.add_char buf '\b'; advance st
       | Some 'f' -> Buffer.add_char buf '\012'; advance st
       | Some ('"' | '\\' | '/') ->
         Buffer.add_char buf (Option.value (peek st) ~default:'?');
         advance st
       | Some 'u' ->
         advance st;
         let cp = parse_hex4 st in
         let cp =
           if cp >= 0xD800 && cp <= 0xDBFF
              && st.pos + 1 < String.length st.text
              && st.text.[st.pos] = '\\'
              && st.text.[st.pos + 1] = 'u'
           then begin
             st.pos <- st.pos + 2;
             let lo = parse_hex4 st in
             0x10000 + (((cp - 0xD800) lsl 10) lor (lo - 0xDC00))
           end
           else cp
         in
         add_utf8 buf cp
       | Some c -> error "Json.parse: invalid escape \\%c" c);
      loop ())
    | Some c ->
      Buffer.add_char buf c;
      advance st;
      loop ()
  in
  loop ();
  Buffer.contents buf

let parse_number st =
  let start = st.pos in
  let consume () =
    match peek st with
    | Some ('0' .. '9' | '-' | '+' | '.' | 'e' | 'E') ->
      advance st;
      true
    | _ -> false
  in
  while consume () do
    ()
  done;
  let s = String.sub st.text start (st.pos - start) in
  match float_of_string_opt s with
  | Some f -> Num f
  | None -> error "Json.parse: invalid number %S at %d" s start

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> error "Json.parse: unexpected end of input"
  | Some 'n' -> expect_lit st "null" Null
  | Some 't' -> expect_lit st "true" (Bool true)
  | Some 'f' -> expect_lit st "false" (Bool false)
  | Some '"' -> Str (parse_string st)
  | Some '[' ->
    advance st;
    skip_ws st;
    if (match peek st with Some ']' -> true | _ -> false) then (
      advance st;
      List [])
    else begin
      let rec items acc =
        let v = parse_value st in
        skip_ws st;
        match peek st with
        | Some ',' ->
          advance st;
          items (v :: acc)
        | Some ']' ->
          advance st;
          List.rev (v :: acc)
        | _ -> error "Json.parse: expected , or ] at %d" st.pos
      in
      List (items [])
    end
  | Some '{' ->
    advance st;
    skip_ws st;
    if (match peek st with Some '}' -> true | _ -> false) then (
      advance st;
      Obj [])
    else begin
      let rec fields acc =
        skip_ws st;
        let k = parse_string st in
        skip_ws st;
        expect st ':';
        let v = parse_value st in
        skip_ws st;
        match peek st with
        | Some ',' ->
          advance st;
          fields ((k, v) :: acc)
        | Some '}' ->
          advance st;
          List.rev ((k, v) :: acc)
        | _ -> error "Json.parse: expected , or } at %d" st.pos
      in
      Obj (fields [])
    end
  | Some ('0' .. '9' | '-') -> parse_number st
  | Some c -> error "Json.parse: unexpected character %c at %d" c st.pos

let of_string text =
  let st = { text; pos = 0 } in
  let v = parse_value st in
  skip_ws st;
  (match peek st with
   | None -> ()
   | Some c -> error "Json.parse: trailing garbage %c at %d" c st.pos);
  v

(* ---------- accessors ---------- *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_list = function List xs -> Some xs | _ -> None

let to_str = function Str s -> Some s | _ -> None

let to_bool = function Bool b -> Some b | _ -> None

let to_num = function Num f -> Some f | _ -> None
