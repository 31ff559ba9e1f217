(* Finding baselines: a committed inventory of accepted findings, so CI
   fails only when *new* findings appear.  Matching deliberately ignores
   line/column — the (rule, file, message) triple is stable under
   unrelated edits, a line number is not.  Multiplicity is tracked: a
   baseline entry with [count = n] absorbs at most [n] identical
   findings; the (n+1)-th is new. *)

module Json = Merlin_report.Json

type entry = {
  rule : string;
  file : string;
  message : string;
  count : int;
}

type t = entry list

let key ~rule ~file ~message = rule ^ "\x00" ^ file ^ "\x00" ^ message

let key_of_finding (f : Finding.t) =
  key ~rule:f.Finding.rule ~file:f.Finding.file ~message:f.Finding.message

let of_findings findings =
  let tbl : (string, entry) Hashtbl.t = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun (f : Finding.t) ->
       let k = key_of_finding f in
       match Hashtbl.find_opt tbl k with
       | Some e -> Hashtbl.replace tbl k { e with count = e.count + 1 }
       | None ->
         Hashtbl.replace tbl k
           { rule = f.Finding.rule;
             file = f.Finding.file;
             message = f.Finding.message;
             count = 1 };
         order := k :: !order)
    findings;
  List.rev !order
  |> List.filter_map (fun k -> Hashtbl.find_opt tbl k)

(* One finding per line keeps committed baselines diff-reviewable. *)
let to_string entries =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n  \"version\": 1,\n  \"findings\": [";
  List.iteri
    (fun i e ->
       if i > 0 then Buffer.add_char buf ',';
       Buffer.add_string buf "\n    ";
       Buffer.add_string buf
         (Json.to_string
            (Json.Obj
               [ ("rule", Json.Str e.rule);
                 ("file", Json.Str e.file);
                 ("message", Json.Str e.message);
                 ("count", Json.Num (float_of_int e.count)) ])))
    entries;
  Buffer.add_string buf "\n  ]\n}\n";
  Buffer.contents buf

(* ---------- parsing (native format) ---------- *)

let entry_of_json j =
  match
    ( Option.bind (Json.member "rule" j) Json.to_str,
      Option.bind (Json.member "file" j) Json.to_str,
      Option.bind (Json.member "message" j) Json.to_str )
  with
  | Some rule, Some file, Some message ->
    let count =
      match Option.bind (Json.member "count" j) Json.to_num with
      | Some f when f >= 1.0 -> int_of_float f
      | Some _ | None -> 1
    in
    Ok { rule; file; message; count }
  | _ -> Error "baseline entry must carry rule/file/message strings"

let of_native j =
  match Option.bind (Json.member "findings" j) Json.to_list with
  | None -> Error "baseline: missing \"findings\" array"
  | Some items ->
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | item :: rest -> (
        match entry_of_json item with
        | Ok e -> go (e :: acc) rest
        | Error _ as e -> e)
    in
    go [] items

(* ---------- parsing (SARIF 2.1) ---------- *)

(* A SARIF log is accepted wherever a baseline is: runs[].results[] with
   ruleId, message.text and the first physical location's uri.  This is
   exactly what merlin_check --format sarif emits, so a CI artifact can
   be promoted to a baseline verbatim. *)
let of_sarif j =
  match Option.bind (Json.member "runs" j) Json.to_list with
  | None -> Error "sarif: missing \"runs\" array"
  | Some runs ->
    let results =
      List.concat_map
        (fun run ->
           Option.bind (Json.member "results" run) Json.to_list
           |> Option.value ~default:[])
        runs
    in
    let findings =
      List.filter_map
        (fun r ->
           let rule =
             Option.bind (Json.member "ruleId" r) Json.to_str
           in
           let message =
             Option.bind (Json.member "message" r) (Json.member "text")
             |> Fun.flip Option.bind Json.to_str
           in
           let file =
             Option.bind (Json.member "locations" r) Json.to_list
             |> Fun.flip Option.bind (fun locs ->
                 match locs with loc :: _ -> Some loc | [] -> None)
             |> Fun.flip Option.bind (Json.member "physicalLocation")
             |> Fun.flip Option.bind (Json.member "artifactLocation")
             |> Fun.flip Option.bind (Json.member "uri")
             |> Fun.flip Option.bind Json.to_str
           in
           match (rule, file, message) with
           | Some rule, Some file, Some message ->
             Some
               (Finding.make ~file ~line:1 ~col:0 ~rule
                  ~severity:Finding.Warning message)
           | _ -> None)
        results
    in
    Ok (of_findings findings)

let of_json j =
  match Json.member "runs" j with
  | Some _ -> of_sarif j
  | None -> of_native j

let of_string text =
  match Json.of_string text with
  | j -> of_json j
  | exception Json.Parse_error msg -> Error msg

let load path =
  match
    let ic = open_in_bin path in
    let len = in_channel_length ic in
    let text = really_input_string ic len in
    close_in ic;
    text
  with
  | text -> of_string text
  | exception Sys_error msg -> Error msg

let save path entries =
  let oc = open_out_bin path in
  output_string oc (to_string entries);
  close_out oc

(* ---------- application ---------- *)

let apply_detailed baseline findings =
  let budget : (string, int) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun e ->
       let k = key ~rule:e.rule ~file:e.file ~message:e.message in
       let prev = Option.value (Hashtbl.find_opt budget k) ~default:0 in
       Hashtbl.replace budget k (prev + e.count))
    baseline;
  let survivors =
    List.filter
      (fun f ->
         let k = key_of_finding f in
         match Hashtbl.find_opt budget k with
         | Some n when n > 0 ->
           Hashtbl.replace budget k (n - 1);
           false
         | Some _ | None -> true)
      findings
  in
  (* Whatever budget is left over is stale.  Several entries can share a
     key (hand-merged baselines); the residue is charged to them in file
     order so the reported counts add up to the leftover exactly. *)
  let stale = ref [] in
  let live = ref [] in
  List.iter
    (fun e ->
       let k = key ~rule:e.rule ~file:e.file ~message:e.message in
       let leftover = Option.value (Hashtbl.find_opt budget k) ~default:0 in
       let r = min e.count leftover in
       Hashtbl.replace budget k (leftover - r);
       if r > 0 then stale := { e with count = r } :: !stale;
       if e.count - r > 0 then live := { e with count = e.count - r } :: !live)
    baseline;
  (survivors, List.rev !stale, List.rev !live)
