(* Orchestration: load cmt artifacts, run C1-C16, audit waivers, flag
   sources with no artifact (coverage guard), sort, render.

   The coverage guard matters because a cmt-based analyzer silently
   passes whatever was never compiled: a library source with no loaded
   artifact yields a [missing-cmt] warning, so the scan either sees a
   unit's typedtree or says that it did not.

   Rule selection.  [analyze ~rules] restricts the run to a subset of
   the analysis rules (C1-C16 by code or by name); the driver-level
   diagnostics (missing-cmt, cmt-error, stale-baseline) always run —
   they are statements about the scan, not about the code.  The
   stale-waiver audit narrows itself to the active rules' tokens: a
   waiver for a deselected rule suppressed nothing *this run*, which
   proves nothing. *)

let tool_name = "merlin_check"

let tool_version = "0.1.0"

(* (code, rule, waiver token, severity, one-line doc) for the analysis
   rules; driver-level diagnostics carry no code or token. *)
let analysis_rules =
  [ ( "C1",
      Domain_safety.rule,
      "domain-safe",
      Finding.Error,
      "task closure mutates shared mutable state without Mutex.protect \
       (waive: domain-safe)" );
    ( "C2",
      Exn_flow.rule,
      "exn-flow",
      Finding.Warning,
      "unhandled raise inside a task closure surfaces only at await \
       (waive: exn-flow)" );
    ( "C3",
      Dead_export.rule,
      "dead-export",
      Finding.Warning,
      ".mli export never referenced from another compilation unit \
       (waive: dead-export)" );
    ( "C4",
      Lock_order.rule,
      "lock-order",
      Finding.Error,
      "lock acquisition closes a cycle in the project lock graph, or \
       inverts the committed --lock-order spec (waive: lock-order)" );
    ( "C5",
      Blocking.rule,
      "blocking-ok",
      Finding.Warning,
      "known-blocking call inside a held-lock region, or Condition.wait \
       with a second lock still held (waive: blocking-ok)" );
    ( "C6",
      Fd_leak.rule,
      "fd-escape",
      Finding.Error,
      "Unix descriptor neither reaches Unix.close on every path nor \
       escapes its binding scope (waive: fd-escape)" );
    ( "C7",
      Nondet_task.rule,
      "nondet-ok",
      Finding.Warning,
      "nondeterministic source reachable from a task closure; task \
       results must replay order-independently (waive: nondet-ok)" );
    ( "C8",
      Cache_key.rule,
      "nondet-ok",
      Finding.Error,
      "nondeterministic value flows into a cache/request key \
       (waive: nondet-ok)" );
    ( "C9",
      Order_fold.rule,
      "nondet-ok",
      Finding.Warning,
      "Hashtbl iteration order escapes without an intervening sort \
       (waive: nondet-ok)" );
    ( "C10",
      Hygiene.poly_compare,
      Hygiene.poly_compare,
      Finding.Error,
      "polymorphic =/<>/compare at a non-scalar type; use a dedicated \
       equal/compare or a pattern match" );
    ( "C11",
      Hygiene.raising_accessor,
      Hygiene.raising_accessor,
      Finding.Error,
      "raising accessor (Hashtbl.find, List.hd, List.nth, Option.get) in \
       lib/; use the _opt form or a pattern match" );
    ( "C12",
      Hygiene.physical_eq,
      Hygiene.physical_eq,
      Finding.Error,
      "physical equality ==/!=; compare structurally" );
    ( "C13",
      Hygiene.error_prefix,
      Hygiene.error_prefix,
      Finding.Error,
      "failwith/invalid_arg message must be prefixed \"Module.function:\"" );
    ( "C14",
      Hygiene.catch_all,
      Hygiene.catch_all,
      Finding.Error,
      "catch-all try ... with _ ->; match specific exceptions" );
    ( "C15",
      Hygiene.mli_sibling,
      Hygiene.mli_sibling,
      Finding.Error,
      "a lib/ unit has an implementation but no .mli interface" );
    ( "C16",
      Hygiene.builder_create_in_loop,
      Hygiene.builder_create_in_loop,
      Finding.Error,
      "Curve.Builder.create inside a loop, iter/fold callback or let rec \
       in a DP hot path; hoist one builder out and clear it between \
       batches" ) ]

let driver_rules =
  [ ( "stale-baseline",
      Finding.Warning,
      "a baseline entry no longer matched by any finding — prune with \
       --prune-baseline" );
    ( "stale-waiver",
      Finding.Warning,
      "a check: waiver that suppressed nothing this run, or names no \
       rule" );
    ("cmt-error", Finding.Warning, "a cmt artifact failed to load");
    ( "missing-cmt",
      Finding.Warning,
      "a source under a --src-root has no cmt artifact in the scan — \
       build first" ) ]

(* (rule, severity, doc) across both groups, for --list-rules. *)
let rule_docs =
  List.map (fun (_, rule, _, sev, doc) -> (rule, sev, doc)) analysis_rules
  @ driver_rules

let rule_code rule =
  List.find_map
    (fun (code, r, _, _, _) ->
       if String.equal r rule then Some code else None)
    analysis_rules

(* A --rules selector: a code ("C7", case-insensitive) or a rule name
   ("nondet-in-task").  Resolves to the rule name. *)
let resolve_selector s =
  let up = String.uppercase_ascii s in
  match
    List.find_opt
      (fun (code, rule, _, _, _) ->
         String.equal code up || String.equal rule s)
      analysis_rules
  with
  | Some (_, rule, _, _, _) -> Ok rule
  | None ->
    Error
      (Printf.sprintf
         "unknown rule %S (codes C1-C%d or rule names; --list-rules shows \
          the set)"
         s
         (List.length analysis_rules))

let strip_dot_slash path =
  if String.length path > 2 && String.equal (String.sub path 0 2) "./" then
    String.sub path 2 (String.length path - 2)
  else path

(* Every .ml under [roots], sorted.  Build directories ([_build],
   dot- and underscore-prefixed) are skipped, and so are [*_fixtures]
   trees: they hold deliberately-bad analyzer inputs and are compiled
   by the tests, not by the build. *)
let collect_sources roots =
  let skip_dir name =
    (String.length name > 0 && (name.[0] = '.' || name.[0] = '_'))
    || Filename.check_suffix name "_fixtures"
  in
  let rec walk acc path =
    if Sys.is_directory path then
      Array.to_list (Sys.readdir path)
      |> List.fold_left
           (fun acc name ->
              let child = Filename.concat path name in
              if Sys.is_directory child then
                if skip_dir name then acc else walk acc child
              else if Filename.check_suffix child ".ml" then child :: acc
              else acc)
           acc
    else if Filename.check_suffix path ".ml" then path :: acc
    else acc
  in
  List.sort String.compare (List.fold_left walk [] roots)

(* Sources the artifact scan never covered. *)
let missing_cmts ~src_roots (units : Cmt_load.t list) =
  let covered = Hashtbl.create 64 in
  List.iter
    (fun (u : Cmt_load.t) ->
       match u.Cmt_load.source with
       | Some s -> Hashtbl.replace covered (strip_dot_slash s) ()
       | None -> ())
    units;
  let roots = List.filter Sys.file_exists src_roots in
  collect_sources roots
  |> List.filter_map (fun src ->
      if Hashtbl.mem covered (strip_dot_slash src) then None
      else
        Some
          (Finding.make ~file:src ~line:1 ~col:0 ~rule:"missing-cmt"
             ~severity:Finding.Warning
             "no cmt artifact for this source in the scan roots; run dune \
              build so the typed rules can see it"))

let analyze ?rules ?(src_roots = []) ?(lock_spec = [])
    (units, load_findings) =
  let active rule =
    match rules with
    | None -> true
    | Some rs -> List.exists (String.equal rule) rs
  in
  let waivers = Waivers.create () in
  List.iter
    (fun (u : Cmt_load.t) ->
       if not (Cmt_load.is_alias_unit u) then (
         Option.iter (Waivers.register_file waivers) u.Cmt_load.source;
         Option.iter (Waivers.register_file waivers) u.Cmt_load.intf_source))
    units;
  (* The call-graph project feeds C4-C6 and, through Purity, C7-C8;
     build each layer only when an active rule needs it. *)
  let project = lazy (Concur.build units) in
  let purity =
    lazy
      (let exempt_units =
         List.filter_map
           (fun (u : Cmt_load.t) ->
              if Cmt_load.is_pool_internal u then Some u.Cmt_load.name
              else None)
           units
       in
       Purity.build ~exempt_units (Lazy.force project))
  in
  let gated rule f = if active rule then f () else [] in
  let c1 = gated Domain_safety.rule (fun () -> Domain_safety.check ~waivers units) in
  let c2 = gated Exn_flow.rule (fun () -> Exn_flow.check ~waivers units) in
  let c3 = gated Dead_export.rule (fun () -> Dead_export.check ~waivers units) in
  let c4 =
    gated Lock_order.rule (fun () ->
        Lock_order.check ~waivers ~spec:lock_spec (Lazy.force project))
  in
  let c5 =
    gated Blocking.rule (fun () -> Blocking.check ~waivers (Lazy.force project))
  in
  let c6 =
    gated Fd_leak.rule (fun () -> Fd_leak.check ~waivers (Lazy.force project))
  in
  let c7 =
    gated Nondet_task.rule (fun () ->
        Nondet_task.check ~waivers ~purity:(Lazy.force purity) units)
  in
  let c8 =
    gated Cache_key.rule (fun () ->
        Cache_key.check ~waivers ~purity:(Lazy.force purity) units)
  in
  let c9 = gated Order_fold.rule (fun () -> Order_fold.check ~waivers units) in
  let c10_16 = Hygiene.check ~waivers ~active units in
  let missing = missing_cmts ~src_roots units in
  let tokens =
    List.filter_map
      (fun (_, rule, tok, _, _) -> if active rule then Some tok else None)
      analysis_rules
    |> List.sort_uniq String.compare
  in
  let stale = Waivers.stale ~active:tokens waivers in
  List.sort Finding.compare_order
    (load_findings @ c1 @ c2 @ c3 @ c4 @ c5 @ c6 @ c7 @ c8 @ c9 @ c10_16
     @ missing @ stale)

let run ?rules ~roots ~src_roots ~lock_spec () =
  analyze ?rules ~src_roots ~lock_spec (Cmt_load.load_roots roots)

type format = Text | Json | Sarif | Github

let render_text findings =
  String.concat "" (List.map (fun f -> Finding.to_text f ^ "\n") findings)

let render_json findings =
  let errors = List.length (List.filter Finding.is_error findings) in
  Printf.sprintf "{\"findings\":[%s],\"errors\":%d,\"total\":%d}\n"
    (String.concat "," (List.map Finding.to_json findings))
    errors (List.length findings)

(* GitHub Actions workflow commands: data after [::] is property-escaped
   so multi-line or %-bearing messages survive the annotation parser. *)
let github_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
       match c with
       | '%' -> Buffer.add_string buf "%25"
       | '\n' -> Buffer.add_string buf "%0A"
       | '\r' -> Buffer.add_string buf "%0D"
       | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let render_github findings =
  String.concat ""
    (List.map
       (fun (f : Finding.t) ->
          Printf.sprintf "::%s file=%s,line=%d,col=%d::[%s] %s\n"
            (Finding.severity_to_string f.Finding.severity)
            (github_escape f.Finding.file)
            f.Finding.line f.Finding.col f.Finding.rule
            (github_escape f.Finding.message))
       findings)

let render format findings =
  match format with
  | Text -> render_text findings
  | Json -> render_json findings
  | Sarif -> Sarif.render ~tool_name ~tool_version findings
  | Github -> render_github findings
