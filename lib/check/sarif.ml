(* SARIF 2.1.0 rendering of findings: one run, one result per finding,
   rule metadata deduplicated into the driver's rules array.  The
   output is accepted back by Baseline (which reads both the native
   baseline format and SARIF), so a CI artifact can be promoted to a
   baseline verbatim. *)

module Json = Merlin_report.Json

let version = "2.1.0"

let schema =
  "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json"

let level_of = function
  | Finding.Error -> "error"
  | Finding.Warning -> "warning"

let result_of (f : Finding.t) =
  Json.Obj
    [ ("ruleId", Json.Str f.Finding.rule);
      ("level", Json.Str (level_of f.Finding.severity));
      ("message", Json.Obj [ ("text", Json.Str f.Finding.message) ]);
      ( "locations",
        Json.List
          [ Json.Obj
              [ ( "physicalLocation",
                  Json.Obj
                    [ ( "artifactLocation",
                        Json.Obj [ ("uri", Json.Str f.Finding.file) ] );
                      ( "region",
                        Json.Obj
                          [ ("startLine", Json.Num (float_of_int f.Finding.line));
                            ( "startColumn",
                              Json.Num (float_of_int (f.Finding.col + 1)) )
                          ] ) ] ) ] ] ) ]

let rule_ids findings =
  List.sort_uniq String.compare
    (List.map (fun (f : Finding.t) -> f.Finding.rule) findings)

let to_json ~tool_name ~tool_version findings =
  Json.Obj
    [ ("version", Json.Str version);
      ("$schema", Json.Str schema);
      ( "runs",
        Json.List
          [ Json.Obj
              [ ( "tool",
                  Json.Obj
                    [ ( "driver",
                        Json.Obj
                          [ ("name", Json.Str tool_name);
                            ("version", Json.Str tool_version);
                            ( "rules",
                              Json.List
                                (List.map
                                   (fun id ->
                                      Json.Obj [ ("id", Json.Str id) ])
                                   (rule_ids findings)) ) ] ) ] );
                ("results", Json.List (List.map result_of findings)) ] ] ) ]

let render ~tool_name ~tool_version findings =
  Json.to_string (to_json ~tool_name ~tool_version findings) ^ "\n"
