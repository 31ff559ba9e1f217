(* merlin_lint rule tests: for each rule R1-R7 a known-bad snippet that
   must be flagged (with the right rule and line) and a known-good
   snippet that must pass.  The executable-level exit codes are checked
   by the fixture rules in test/dune over test/lint_fixtures/. *)

module Driver = Merlin_lint.Driver
module Finding = Merlin_lint.Finding

let spans ~filename src =
  List.map
    (fun f -> (f.Finding.rule, f.Finding.line))
    (Driver.lint_string ~filename src)

let check_spans name expected ~filename src =
  Alcotest.(check (list (pair string int))) name expected (spans ~filename src)

let test_poly_compare () =
  check_spans "structured literal flagged" [ ("poly-compare", 2) ]
    ~filename:"lib/fix.ml" "let x = 1\nlet is_empty l = l = []\n";
  check_spans "constructor operand flagged" [ ("poly-compare", 1) ]
    ~filename:"lib/fix.ml" "let f o p = o = Some p\n";
  check_spans "first-class compare flagged" [ ("poly-compare", 1) ]
    ~filename:"lib/fix.ml" "let sort l = List.sort compare l\n";
  check_spans "pattern match passes" [] ~filename:"lib/fix.ml"
    "let is_empty = function [] -> true | _ :: _ -> false\n";
  check_spans "scalar comparison passes" [] ~filename:"lib/fix.ml"
    "let f x = x = 3 && x <> 5\n"

let test_raising_accessor () =
  check_spans "Hashtbl.find in lib flagged" [ ("raising-accessor", 1) ]
    ~filename:"lib/fix.ml" "let f tbl k = Hashtbl.find tbl k\n";
  check_spans "List.hd in lib flagged" [ ("raising-accessor", 1) ]
    ~filename:"lib/fix.ml" "let f l = List.hd l\n";
  check_spans "allowed outside lib" [] ~filename:"bin/fix.ml"
    "let f tbl k = Hashtbl.find tbl k\n";
  check_spans "_opt form passes" [] ~filename:"lib/fix.ml"
    "let f tbl k = Hashtbl.find_opt tbl k\n"

let test_physical_eq () =
  check_spans "== flagged" [ ("physical-eq", 1) ] ~filename:"lib/fix.ml"
    "let same a b = a == b\n";
  check_spans "!= flagged" [ ("physical-eq", 1) ] ~filename:"bin/fix.ml"
    "let diff a b = a != b\n";
  check_spans "waiver accepted" [] ~filename:"lib/fix.ml"
    "let same a b = a == b (* l\105nt: physical-eq *)\n"

let test_error_prefix () =
  check_spans "bare message flagged" [ ("error-prefix", 1) ]
    ~filename:"lib/fix.ml" "let f () = failwith \"boom\"\n";
  check_spans "module-only prefix flagged" [ ("error-prefix", 1) ]
    ~filename:"lib/fix.ml" "let f () = invalid_arg \"Fix: boom\"\n";
  check_spans "sprintf format flagged" [ ("error-prefix", 2) ]
    ~filename:"lib/fix.ml"
    "let f n =\n  invalid_arg (Printf.sprintf \"bad %d\" n)\n";
  check_spans "Module.function prefix passes" [] ~filename:"lib/fix.ml"
    "let f () = failwith \"Fix.f: boom\"\n";
  check_spans "prefixed sprintf passes" [] ~filename:"lib/fix.ml"
    "let f n = invalid_arg (Printf.sprintf \"Fix.f: bad %d\" n)\n"

let test_catch_all () =
  check_spans "with _ flagged" [ ("catch-all", 1) ] ~filename:"lib/fix.ml"
    "let safe f = try f () with _ -> 0\n";
  check_spans "or-pattern catch-all flagged" [ ("catch-all", 1) ]
    ~filename:"lib/fix.ml" "let safe f = try f () with Not_found | _ -> 0\n";
  check_spans "specific exception passes" [] ~filename:"lib/fix.ml"
    "let safe f = try f () with Not_found -> 0\n"

let test_builder_create_in_loop () =
  check_spans "iter callback flagged in core" [ ("builder-create-in-loop", 2) ]
    ~filename:"lib/core/fix.ml"
    "let f cells =\n\
    \  List.iter (fun c -> ignore (Curve.Builder.create ())) cells\n";
  check_spans "for-loop body flagged in lttree" [ ("builder-create-in-loop", 1) ]
    ~filename:"lib/lttree/fix.ml"
    "let f n = for _i = 1 to n do ignore (Curve.Builder.create ()) done\n";
  check_spans "qualified form flagged" [ ("builder-create-in-loop", 1) ]
    ~filename:"lib/core/fix.ml"
    "let f l = List.iter (fun _ -> ignore (Merlin_curves.Curve.Builder.create ())) l\n";
  check_spans "hoisted create passes" [] ~filename:"lib/core/fix.ml"
    "let f cells =\n\
    \  let bld = Curve.Builder.create () in\n\
    \  List.iter (fun c -> fill bld c) cells\n";
  check_spans "outside the hot paths passes" [] ~filename:"lib/flows/fix.ml"
    "let f l = List.iter (fun _ -> ignore (Curve.Builder.create ())) l\n";
  check_spans "waiver accepted" [] ~filename:"lib/core/fix.ml"
    "let f l =\n\
    \  List.iter (fun _ -> ignore (Curve.Builder.create ())) l (* l\105nt: builder-create-in-loop *)\n"

(* A [let rec] body runs once per recursive call, so it counts as a loop. *)
let test_builder_create_in_let_rec () =
  check_spans "top-level let rec flagged in lttree"
    [ ("builder-create-in-loop", 1) ]
    ~filename:"lib/lttree/fix.ml"
    "let rec f i = if i > 0 then (ignore (Curve.Builder.create ()); f (i - 1))\n"

(* [lib/ginneken] is a hot path: one builder per tree node fires... *)
let test_builder_per_node_ginneken () =
  check_spans "per-node builder in a let rec flagged in ginneken"
    [ ("builder-create-in-loop", 3) ]
    ~filename:"lib/ginneken/fix.ml"
    "let curve tree =\n\
    \  let rec walk t =\n\
    \    let bld = Curve.Builder.create () in\n\
    \    fill bld t; List.iter walk t.kids\n\
    \  in\n\
    \  walk tree\n"

(* ...one builder per walk, cleared for every batch, passes. *)
let test_builder_per_walk_ginneken () =
  check_spans "per-walk builder passes in ginneken" []
    ~filename:"lib/ginneken/fix.ml"
    "let curve tree =\n\
    \  let bld = Curve.Builder.create () in\n\
    \  let rec walk t = Curve.Builder.clear bld; List.iter walk t.kids in\n\
    \  walk tree\n"

let write_file path text =
  let oc = open_out path in
  output_string oc text;
  close_out oc

let test_mli_sibling () =
  let dir = Filename.temp_file "merlin_lint" ".d" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let libdir = Filename.concat dir "lib" in
  Sys.mkdir libdir 0o755;
  let ml = Filename.concat libdir "orphan.ml" in
  write_file ml "let x = 1\n";
  let rules =
    List.map
      (fun f -> f.Finding.rule)
      (Driver.lint_paths [ dir ])
  in
  Alcotest.(check (list string)) "orphan .ml flagged" [ "mli-sibling" ] rules;
  write_file (ml ^ "i") "val x : int\n";
  Alcotest.(check (list string)) "sibling .mli silences" []
    (List.map (fun f -> f.Finding.rule) (Driver.lint_paths [ dir ]))

let test_parse_error () =
  match Driver.lint_string ~filename:"lib/fix.ml" "let = \n" with
  | [ f ] ->
    Alcotest.(check string) "rule" "parse-error" f.Finding.rule;
    Alcotest.(check bool) "is error" true (Finding.is_error f)
  | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
  at 0

let test_render () =
  let findings =
    Driver.lint_string ~filename:"lib/fix.ml" "let same a b = a == b\n"
  in
  Alcotest.(check bool) "has errors" true (Driver.has_errors findings);
  let text = Driver.render_text findings in
  Alcotest.(check bool) "text span" true
    (contains text "lib/fix.ml:1:17 [physical-eq]");
  let json = Driver.render_json findings in
  Alcotest.(check bool) "json rule" true
    (contains json "\"rule\":\"physical-eq\"");
  Alcotest.(check bool) "json errors" true (contains json "\"errors\":1")

let suite =
  ( "lint",
    [ Alcotest.test_case "R1 poly-compare" `Quick test_poly_compare;
      Alcotest.test_case "R2 raising-accessor" `Quick test_raising_accessor;
      Alcotest.test_case "R3 physical-eq" `Quick test_physical_eq;
      Alcotest.test_case "R4 error-prefix" `Quick test_error_prefix;
      Alcotest.test_case "R5 catch-all" `Quick test_catch_all;
      Alcotest.test_case "R6 mli-sibling" `Quick test_mli_sibling;
      Alcotest.test_case "R7 builder-create-in-loop" `Quick
        test_builder_create_in_loop;
      Alcotest.test_case "R7 let rec body is a loop" `Quick
        test_builder_create_in_let_rec;
      Alcotest.test_case "R7 per-node builder in ginneken fires" `Quick
        test_builder_per_node_ginneken;
      Alcotest.test_case "R7 per-walk builder in ginneken passes" `Quick
        test_builder_per_walk_ginneken;
      Alcotest.test_case "parse error reported" `Quick test_parse_error;
      Alcotest.test_case "rendering" `Quick test_render ] )
