(* merlin_check: typedtree-based whole-project analyzer.

   Usage:
     merlin_check [--format text|json|sarif|github] [--sarif]
                  [--rules C1,C7,...] [--list-rules]
                  [--baseline FILE] [--write-baseline FILE]
                  [--prune-baseline] [--strict-baseline]
                  [--lock-order FILE] [--src-root DIR]... [ROOT...]

   ROOTs are files or directories scanned for .cmt/.cmti artifacts
   (default "."), so the tool is normally run from the dune build
   directory after a build.  --src-root trees (default "lib") are
   guarded for artifact coverage: a source there with no loaded cmt is
   itself a finding.  --lock-order names the committed lock-hierarchy
   spec for the C4 inversion check (a ./lock-order.spec is picked up
   automatically); cycles are flagged with or without a spec.
   --rules restricts the run to a comma-separated subset of the
   analysis rules, by code (C1-C16) or by name (nondet-in-task); the
   driver diagnostics (missing-cmt, cmt-error, stale-baseline) always
   run.

   Baseline hygiene mirrors waiver hygiene: entries the current run no
   longer needs are reported as [stale-baseline] warnings.
   --prune-baseline rewrites the --baseline file without them;
   --strict-baseline makes an unpruned stale entry fail the run, so CI
   can insist the committed inventory stays exact.

   Exit codes: 0 nothing survives the baseline (and, under
   --strict-baseline, no stale entries remain), 1 otherwise (warnings
   included: the baseline, not the severity, is the accepted-findings
   mechanism), 2 usage/IO failure — including an unknown --rules
   selector.  A --rules filter does not change the semantics of exit 1:
   whatever the selected rules report past the baseline fails the
   run. *)

module Finding = Merlin_check.Finding
module Baseline = Merlin_check.Baseline

let default_spec_file = "lock-order.spec"

let stale_baseline_findings stale =
  List.map
    (fun (e : Baseline.entry) ->
       Finding.make ~file:e.Baseline.file ~line:1 ~col:0
         ~rule:"stale-baseline" ~severity:Finding.Warning
         (Printf.sprintf
            "baseline entry for [%s] no longer matches any finding (%d \
             unconsumed): %s"
            e.Baseline.rule e.Baseline.count
            e.Baseline.message))
    stale

let () =
  let format = ref Merlin_check.Check_driver.Text in
  let roots = ref [] in
  let src_roots = ref [] in
  let baseline = ref None in
  let write_baseline = ref None in
  let lock_order = ref None in
  let prune = ref false in
  let strict = ref false in
  let rules = ref None in
  let set_format s =
    format :=
      match s with
      | "json" -> Merlin_check.Check_driver.Json
      | "sarif" -> Merlin_check.Check_driver.Sarif
      | "github" -> Merlin_check.Check_driver.Github
      | _ -> Merlin_check.Check_driver.Text
  in
  let spec =
    [ ( "--format",
        Arg.Symbol ([ "text"; "json"; "sarif"; "github" ], set_format),
        " output format (default text; github emits Actions annotations)" );
      ( "--sarif",
        Arg.Unit (fun () -> set_format "sarif"),
        " shorthand for --format sarif" );
      ( "--baseline",
        Arg.String (fun s -> baseline := Some s),
        "FILE subtract findings recorded in FILE (native or SARIF) \
         before reporting" );
      ( "--write-baseline",
        Arg.String (fun s -> write_baseline := Some s),
        "FILE record the current findings as the accepted baseline and \
         exit" );
      ( "--prune-baseline",
        Arg.Set prune,
        " rewrite the --baseline file without entries this run no \
         longer needs" );
      ( "--strict-baseline",
        Arg.Set strict,
        " fail (exit 1) when the baseline carries stale entries" );
      ( "--lock-order",
        Arg.String (fun s -> lock_order := Some s),
        "FILE committed lock order, outermost first, for the C4 \
         inversion check (default ./lock-order.spec when present)" );
      ( "--src-root",
        Arg.String (fun s -> src_roots := s :: !src_roots),
        "DIR source tree guarded for cmt coverage (repeatable; default \
         lib)" );
      ( "--rules",
        Arg.String (fun s -> rules := Some s),
        "C1,C7,... run only these analysis rules (codes or names); \
         driver diagnostics always run" );
      ( "--list-rules",
        Arg.Unit
          (fun () ->
             List.iter
               (fun (name, sev, doc) ->
                  Printf.printf "%-4s %-22s %-7s %s\n"
                    (Option.value
                       (Merlin_check.Check_driver.rule_code name)
                       ~default:"-")
                    name
                    (Finding.severity_to_string sev)
                    doc)
               Merlin_check.Check_driver.rule_docs;
             exit 0),
        " list the rule set and exit" ) ]
  in
  let usage =
    "merlin_check [--format text|json|sarif|github] [--rules C1,C7,...] \
     [--baseline FILE] [--write-baseline FILE] [--prune-baseline] \
     [--strict-baseline] [--lock-order FILE] [--src-root DIR]... [ROOT...]"
  in
  Arg.parse spec (fun p -> roots := p :: !roots) usage;
  let rules =
    match !rules with
    | None -> None
    | Some s ->
      Some
        (String.split_on_char ',' s
         |> List.map String.trim
         |> List.filter (fun s -> String.length s > 0)
         |> List.map (fun sel ->
             match Merlin_check.Check_driver.resolve_selector sel with
             | Ok rule -> rule
             | Error msg ->
               prerr_endline ("merlin_check: --rules: " ^ msg);
               exit 2))
  in
  let roots = match List.rev !roots with [] -> [ "." ] | ps -> ps in
  let src_roots =
    match List.rev !src_roots with [] -> [ "lib" ] | ps -> ps
  in
  if !prune && Option.is_none !baseline then (
    prerr_endline "merlin_check: --prune-baseline needs --baseline FILE";
    exit 2);
  let lock_spec =
    let file =
      match !lock_order with
      | Some f -> Some f
      | None ->
        if Sys.file_exists default_spec_file then Some default_spec_file
        else None
    in
    match file with
    | None -> []
    | Some f -> (
      match Merlin_check.Lock_order.load_spec f with
      | Ok s -> s
      | Error msg ->
        prerr_endline ("merlin_check: --lock-order " ^ f ^ ": " ^ msg);
        exit 2)
  in
  let baseline_entries =
    match !baseline with
    | None -> []
    | Some file -> (
      match Baseline.load file with
      | Ok b -> b
      | Error msg ->
        prerr_endline ("merlin_check: --baseline " ^ file ^ ": " ^ msg);
        exit 2)
  in
  match Merlin_check.Check_driver.run ?rules ~roots ~src_roots ~lock_spec () with
  | findings -> (
    match !write_baseline with
    | Some file ->
      Baseline.save file (Baseline.of_findings findings);
      Printf.printf "merlin_check: wrote %d finding(s) to %s\n"
        (List.length findings) file
    | None ->
      let survivors, stale, live =
        Baseline.apply_detailed baseline_entries findings
      in
      let stale_rendered, stale_open =
        if !prune then (
          (match !baseline with
           | Some file -> Baseline.save file live
           | None -> ());
          Printf.eprintf "merlin_check: pruned %d stale entr%s from %s\n"
            (List.length stale)
            (match stale with [ _ ] -> "y" | _ -> "ies")
            (Option.value !baseline ~default:"");
          ([], []))
        else (stale_baseline_findings stale, stale)
      in
      let shown =
        List.sort Finding.compare_order (survivors @ stale_rendered)
      in
      print_string (Merlin_check.Check_driver.render !format shown);
      let failed =
        (match survivors with [] -> false | _ :: _ -> true)
        || (!strict && (match stale_open with [] -> false | _ :: _ -> true))
      in
      if failed then exit 1)
  | exception Sys_error msg ->
    prerr_endline ("merlin_check: " ^ msg);
    exit 2
