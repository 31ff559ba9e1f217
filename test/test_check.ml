(* merlin_check tests: the rules against compiled fixtures, and the
   SARIF -> baseline round-trip property.

   Fixtures under check_fixtures/ are plain sources (not part of any
   dune stanza); the test copies them to a temp directory, compiles
   them there with ocamlc -bin-annot and runs the analyzer on the
   resulting artifacts.  Compiling outside the build tree keeps the
   fixtures' deliberate violations out of the repository-wide @check
   scan.  Rules scoped to lib/ (C11, C15, C16) see a fixture's source
   path, so those fixtures are compiled under a lib/ (or lib/core/)
   directory of the temp tree. *)

module Cmt_load = Merlin_check.Cmt_load
module Check_driver = Merlin_check.Check_driver
module Finding = Merlin_check.Finding
module Baseline = Merlin_check.Baseline
module Hygiene = Merlin_check.Hygiene

let qtest ?(count = 50) name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb prop)

(* ---- fixture compilation ---- *)

let fixture_files =
  (* exports.mli/.ml must precede user.ml: ocamlc needs the cmi. *)
  [ "exports.mli"; "exports.ml"; "user.ml"; "c1_pos.ml"; "c1_neg.ml";
    "c1_waived.ml"; "c2_pos.ml"; "c2_neg.ml"; "stale.ml"; "c4_pos.ml";
    "c4_neg.ml"; "c4_waived.ml"; "c5_pos.ml"; "c5_neg.ml"; "c5_waived.ml";
    "c6_pos.ml"; "c6_neg.ml"; "c6_waived.ml"; "c7_pos.ml"; "c7_neg.ml";
    "c7_waived.ml"; "c8_pos.ml"; "c8_neg.ml"; "c8_waived.ml"; "c9_pos.ml";
    "c9_neg.ml"; "c9_waived.ml" ]

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  text

let write_file path text =
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then (
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755)

(* A fresh directory per compilation, under one temp root that is
   removed when the test process exits. *)
let fresh_dir =
  let root =
    lazy
      (let root = Filename.temp_dir "merlin_check_test" "" in
       at_exit (fun () ->
           ignore (Sys.command ("rm -rf " ^ Filename.quote root)));
       root)
  in
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat (Lazy.force root) (string_of_int !n)

(* Write [(relative path, text)] sources under [dir] and compile them
   there, in order (an .mli before its .ml, a dependency before its
   users), with [includes] and every source directory on the load
   path. *)
let compile ?(includes = []) dir sources =
  mkdir_p dir;
  List.iter
    (fun (rel, text) ->
       let path = Filename.concat dir rel in
       mkdir_p (Filename.dirname path);
       write_file path text)
    sources;
  let dirs =
    List.sort_uniq String.compare
      (includes
       @ List.map
           (fun (rel, _) -> Filename.concat dir (Filename.dirname rel))
           sources)
  in
  let cmd =
    Printf.sprintf "ocamlc -bin-annot -w -a %s -c %s"
      (String.concat " "
         (List.map (fun d -> "-I " ^ Filename.quote d) dirs))
      (String.concat " "
         (List.map
            (fun (rel, _) -> Filename.quote (Filename.concat dir rel))
            sources))
  in
  if Sys.command cmd <> 0 then
    failwith "Test_check.compile: fixture compilation failed";
  Cmt_load.load_roots [ dir ]

let fixture rel = (rel, read_file (Filename.concat "check_fixtures" rel))

(* Compile once, analyze once; every test case reads this. *)
let analysis =
  lazy
    (let dir = fresh_dir () in
     let units, errs = compile dir (List.map fixture fixture_files) in
     (units, errs, Check_driver.analyze (units, errs)))

let findings_for base =
  let _, _, findings = Lazy.force analysis in
  List.filter
    (fun (f : Finding.t) ->
       String.equal (Filename.basename f.Finding.file) base)
    findings

let contains text sub =
  let n = String.length sub and m = String.length text in
  let rec scan i =
    i + n <= m && (String.equal (String.sub text i n) sub || scan (i + 1))
  in
  scan 0

let count_rule rule findings =
  List.length
    (List.filter
       (fun (f : Finding.t) -> String.equal f.Finding.rule rule)
       findings)

(* ---- loader ---- *)

let test_loader () =
  let units, errs, _ = Lazy.force analysis in
  Alcotest.(check int) "no load errors" 0 (List.length errs);
  (* exports.ml + exports.mli merge into one unit *)
  Alcotest.(check int) "one unit per module" (List.length fixture_files - 1)
    (List.length units);
  let exports =
    List.find
      (fun (u : Cmt_load.t) -> String.equal u.Cmt_load.name "Exports")
      units
  in
  Alcotest.(check bool) "impl loaded" true (Option.is_some exports.Cmt_load.impl);
  Alcotest.(check bool) "intf loaded" true (Option.is_some exports.Cmt_load.intf)

(* ---- C1 ---- *)

let test_c1_positive () =
  let fs = findings_for "c1_pos.ml" in
  (* incr on a ref, a mutable-field set and a Hashtbl.replace *)
  Alcotest.(check int) "three captures" 3
    (count_rule "domain-unsafe-capture" fs);
  Alcotest.(check bool) "names the ref" true
    (List.exists
       (fun (f : Finding.t) ->
          Finding.is_error f && contains f.Finding.message "hits")
       fs)

let test_c1_negative () =
  Alcotest.(check int) "clean file" 0 (List.length (findings_for "c1_neg.ml"))

let test_c1_waived () =
  let fs = findings_for "c1_waived.ml" in
  Alcotest.(check int) "no capture reported" 0
    (count_rule "domain-unsafe-capture" fs);
  (* the waiver was consumed, so it must not be stale either *)
  Alcotest.(check int) "no stale waiver" 0 (count_rule "stale-waiver" fs)

(* ---- C2 ---- *)

let test_c2_positive () =
  let fs = findings_for "c2_pos.ml" in
  (* failwith, List.hd and Option.get, each unhandled *)
  Alcotest.(check int) "three escapes" 3 (count_rule "task-exn-escape" fs)

let test_c2_negative () =
  Alcotest.(check int) "handled raisers" 0
    (List.length (findings_for "c2_neg.ml"))

(* ---- C3 ---- *)

let test_c3 () =
  let fs = findings_for "exports.mli" in
  Alcotest.(check int) "one dead export" 1 (count_rule "dead-export" fs);
  let dead =
    List.find (fun (f : Finding.t) -> String.equal f.Finding.rule "dead-export") fs
  in
  Alcotest.(check bool) "it is Exports.dead" true
    (String.equal dead.Finding.message
       "Exports.dead is exported by its .mli but never referenced from \
        another compilation unit")

(* ---- C4 ---- *)

let test_c4_positive () =
  let fs = findings_for "c4_pos.ml" in
  (* both directions of the AB/BA cycle close it *)
  Alcotest.(check int) "both inversions flagged" 2 (count_rule "lock-order" fs);
  Alcotest.(check bool) "message shows the cycle" true
    (List.exists
       (fun (f : Finding.t) ->
          Finding.is_error f && contains f.Finding.message "closes a lock cycle"
          && contains f.Finding.message "C4_pos.locks.a")
       fs)

let test_c4_negative () =
  Alcotest.(check int) "consistent nesting is clean" 0
    (List.length (findings_for "c4_neg.ml"))

(* Re-analyze with a committed order that ranks b above a: c4_neg's
   consistent a-then-b nesting becomes a spec inversion. *)
let test_c4_spec_inversion () =
  let units, errs, _ = Lazy.force analysis in
  let fs =
    Check_driver.analyze
      ~lock_spec:[ "C4_neg.locks.b"; "C4_neg.locks.a" ]
      (units, errs)
    |> List.filter (fun (f : Finding.t) ->
        String.equal (Filename.basename f.Finding.file) "c4_neg.ml")
  in
  Alcotest.(check int) "one inversion per nesting site" 2
    (count_rule "lock-order" fs);
  Alcotest.(check bool) "names the committed order" true
    (List.exists
       (fun (f : Finding.t) ->
          contains f.Finding.message "inverts the committed lock order")
       fs)

let test_spec_parse () =
  (match
     Merlin_check.Lock_order.spec_of_string
       "# outermost first\n\nServer.lock\n  Lru.lock  \n\t\n# tail\n"
   with
   | Ok entries ->
     Alcotest.(check (list string)) "comments and blanks dropped"
       [ "Server.lock"; "Lru.lock" ] entries
   | Error msg -> Alcotest.fail msg);
  match Merlin_check.Lock_order.spec_of_string "A.x\nB.y\nA.x\n" with
  | Ok _ -> Alcotest.fail "duplicate lock accepted"
  | Error msg ->
    Alcotest.(check bool) "duplicate named" true (contains msg "A.x")

let test_c4_waived () =
  let fs = findings_for "c4_waived.ml" in
  Alcotest.(check int) "cycle waived" 0 (count_rule "lock-order" fs);
  Alcotest.(check int) "waivers consumed" 0 (count_rule "stale-waiver" fs)

(* ---- C5 ---- *)

let test_c5_positive () =
  let fs = findings_for "c5_pos.ml" in
  Alcotest.(check int) "join under lock + wrong-mutex wait + helper call" 3
    (count_rule "blocking-under-lock" fs);
  Alcotest.(check bool) "wait finding names the pinned lock" true
    (List.exists
       (fun (f : Finding.t) ->
          contains f.Finding.message "Condition.wait releases only"
          && contains f.Finding.message "C5_pos.s.m")
       fs);
  (* The helper's finding sits at the call, on the caller's line, and
     names the helper and the primitive it reaches. *)
  Alcotest.(check bool) "helper call names helper and primitive" true
    (List.exists
       (fun (f : Finding.t) ->
          contains f.Finding.message "call to C5_pos.join_worker"
          && contains f.Finding.message "Thread.join"
          && Int.equal f.Finding.line 26)
       fs)

let test_c5_negative () =
  Alcotest.(check int) "classic wait and post-region join are clean" 0
    (List.length (findings_for "c5_neg.ml"))

let test_c5_waived () =
  let fs = findings_for "c5_waived.ml" in
  Alcotest.(check int) "deliberate join waived" 0
    (count_rule "blocking-under-lock" fs);
  Alcotest.(check int) "waiver consumed" 0 (count_rule "stale-waiver" fs)

(* ---- C6 ---- *)

let test_c6_positive () =
  let fs = findings_for "c6_pos.ml" in
  Alcotest.(check int) "raise-edge leak + never-closed" 2
    (count_rule "fd-leak" fs);
  Alcotest.(check bool) "raise edge names the borrow" true
    (List.exists
       (fun (f : Finding.t) ->
          contains f.Finding.message "Unix.send can raise before")
       fs);
  Alcotest.(check bool) "never-closed reported at the binding" true
    (List.exists
       (fun (f : Finding.t) ->
          contains f.Finding.message "no path reaches Unix.close")
       fs)

let test_c6_negative () =
  Alcotest.(check int) "finally/handler/escape shapes are clean" 0
    (List.length (findings_for "c6_neg.ml"))

let test_c6_waived () =
  let fs = findings_for "c6_waived.ml" in
  Alcotest.(check int) "lifetime fd waived" 0 (count_rule "fd-leak" fs);
  Alcotest.(check int) "waiver consumed" 0 (count_rule "stale-waiver" fs)

(* ---- C7 ---- *)

let test_c7_positive () =
  let fs = findings_for "c7_pos.ml" in
  Alcotest.(check int) "direct draw + nondet helper" 2
    (count_rule "nondet-in-task" fs);
  (* The interprocedural finding carries the call chain to the
     source. *)
  Alcotest.(check bool) "trace names the helper chain" true
    (List.exists
       (fun (f : Finding.t) ->
          contains f.Finding.message "C7_pos.jitter > Random.float")
       fs)

let test_c7_negative () =
  Alcotest.(check int) "seeded state and pure helper are clean" 0
    (List.length (findings_for "c7_neg.ml"))

let test_c7_waived () =
  let fs = findings_for "c7_waived.ml" in
  Alcotest.(check int) "telemetry clock read waived" 0
    (count_rule "nondet-in-task" fs);
  Alcotest.(check int) "waiver consumed" 0 (count_rule "stale-waiver" fs)

(* ---- C8 ---- *)

let test_c8_positive () =
  let fs = findings_for "c8_pos.ml" in
  Alcotest.(check int) "direct key, tainted let, request_key" 3
    (count_rule "impure-cache-key" fs);
  Alcotest.(check bool) "impure keys are errors" true
    (List.for_all
       (fun (f : Finding.t) ->
          (not (String.equal f.Finding.rule "impure-cache-key"))
          || Finding.is_error f)
       fs);
  Alcotest.(check bool) "taint names the let binder" true
    (List.exists
       (fun (f : Finding.t) ->
          contains f.Finding.message "through let-bound key")
       fs)

let test_c8_negative () =
  Alcotest.(check int) "request-derived keys are clean" 0
    (List.length (findings_for "c8_neg.ml"))

let test_c8_waived () =
  let fs = findings_for "c8_waived.ml" in
  Alcotest.(check int) "deliberate miss probe waived" 0
    (count_rule "impure-cache-key" fs);
  Alcotest.(check int) "waiver consumed" 0 (count_rule "stale-waiver" fs)

(* ---- C9 ---- *)

let test_c9_positive () =
  let fs = findings_for "c9_pos.ml" in
  Alcotest.(check int) "unsorted fold + iter" 2
    (count_rule "order-sensitive-fold" fs);
  Alcotest.(check bool) "names the traversal" true
    (List.exists
       (fun (f : Finding.t) -> contains f.Finding.message "Hashtbl.iter")
       fs)

let test_c9_negative () =
  Alcotest.(check int) "sorted directly and downstream are clean" 0
    (List.length (findings_for "c9_neg.ml"))

let test_c9_waived () =
  let fs = findings_for "c9_waived.ml" in
  Alcotest.(check int) "commutative fold waived" 0
    (count_rule "order-sensitive-fold" fs);
  Alcotest.(check int) "waiver consumed" 0 (count_rule "stale-waiver" fs)

(* ---- C10-C16: the per-unit hygiene rules ----

   The cases keep the names of the syntactic linter they were ported
   from (R1-R7 are C10-C16).  Each snippet is compiled on its own under
   the given source path, against stubs for Curve.Builder, and analyzed
   with the hygiene rules; C15 is left out because a lib/ snippet has
   no .mli. *)

let stubs =
  lazy
    (let dir = fresh_dir () in
     ignore
       (compile dir
          [ fixture "stubs/curve.ml"; fixture "stubs/merlin_curves.ml" ]);
     Filename.concat dir "stubs")

let hygiene_rules =
  [ Hygiene.poly_compare; Hygiene.raising_accessor; Hygiene.physical_eq;
    Hygiene.error_prefix; Hygiene.catch_all; Hygiene.mli_sibling;
    Hygiene.builder_create_in_loop ]

let analyze_snippet ~filename src =
  let dir = fresh_dir () in
  let rules =
    List.filter
      (fun r -> not (String.equal r Hygiene.mli_sibling))
      hygiene_rules
  in
  Check_driver.analyze ~rules
    (compile ~includes:[ Lazy.force stubs ] dir [ (filename, src) ])

let spans ~filename src =
  List.map
    (fun (f : Finding.t) -> (f.Finding.rule, f.Finding.line))
    (analyze_snippet ~filename src)

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

(* The typed rule judges [compare] at its instantiated type: sorting
   ints is a specialised integer compare, not a polymorphic one. *)
let test_poly_compare_int () =
  check_spans "int compare passes" [] ~filename:"lib/fix.ml"
    "let sort (l : int list) = List.sort compare l\n";
  check_spans "abbreviation of a scalar passes" [] ~filename:"lib/fix.ml"
    "let same (a : Float.t) b = a = b\n"

(* ...and it sees structure with no literal operand in sight. *)
let test_poly_compare_record () =
  check_spans "record = flagged" [ ("poly-compare", 2) ]
    ~filename:"lib/fix.ml"
    "type p = { x : int; y : int }\nlet same (a : p) b = a = b\n"

let test_raising_accessor () =
  check_spans "Hashtbl.find in lib flagged" [ ("raising-accessor", 1) ]
    ~filename:"lib/fix.ml" "let f tbl k = Hashtbl.find tbl k\n";
  check_spans "List.hd in lib flagged" [ ("raising-accessor", 1) ]
    ~filename:"lib/fix.ml" "let f l = List.hd l\n";
  check_spans "allowed outside lib" [] ~filename:"bin/fix.ml"
    "let f tbl k = Hashtbl.find tbl k\n";
  check_spans "_opt form passes" [] ~filename:"lib/fix.ml"
    "let f tbl k = Hashtbl.find_opt tbl k\n"

let test_raising_accessor_alias () =
  check_spans "aliased Hashtbl.find flagged" [ ("raising-accessor", 2) ]
    ~filename:"lib/fix.ml" "module H = Hashtbl\nlet f tbl k = H.find tbl k\n"

(* The waiver opener is spelled with an escape so this file carries no
   waiver of its own. *)
let test_physical_eq () =
  check_spans "== flagged" [ ("physical-eq", 1) ] ~filename:"lib/fix.ml"
    "let same a b = a == b\n";
  check_spans "!= flagged" [ ("physical-eq", 1) ] ~filename:"bin/fix.ml"
    "let diff a b = a != b\n";
  check_spans "waiver accepted" [] ~filename:"lib/fix.ml"
    "let same a b = a == b (* ch\101ck: physical-eq *)\n"

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
    \  List.iter (fun c -> ignore (Curve.fill bld c)) cells\n";
  check_spans "outside the hot paths passes" [] ~filename:"lib/flows/fix.ml"
    "let f l = List.iter (fun _ -> ignore (Curve.Builder.create ())) l\n";
  check_spans "waiver accepted" [] ~filename:"lib/core/fix.ml"
    "let f l =\n\
    \  List.iter (fun _ -> ignore (Curve.Builder.create ())) l (* ch\101ck: builder-create-in-loop *)\n"

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
    \    ignore (Curve.fill bld t); List.iter walk t.Curve.kids\n\
    \  in\n\
    \  walk tree\n"

(* ...one builder per walk, cleared for every batch, passes. *)
let test_builder_per_walk_ginneken () =
  check_spans "per-walk builder passes in ginneken" []
    ~filename:"lib/ginneken/fix.ml"
    "let curve tree =\n\
    \  let bld = Curve.Builder.create () in\n\
    \  let rec walk t = Curve.Builder.clear bld; List.iter walk t.Curve.kids in\n\
    \  walk tree\n"

(* C15 is a property of the loaded unit: an implementation with no
   interface artifact. *)
let test_mli_sibling () =
  let dir = fresh_dir () in
  let rules fs = List.map (fun (f : Finding.t) -> f.Finding.rule) fs in
  let analyze sources =
    Check_driver.analyze ~rules:hygiene_rules (compile dir sources)
  in
  Alcotest.(check (list string)) "orphan .ml flagged" [ "mli-sibling" ]
    (rules (analyze [ ("lib/orphan.ml", "let x = 1\n") ]));
  Alcotest.(check (list string)) "sibling .mli silences" []
    (rules
       (analyze
          [ ("lib/orphan.mli", "val x : int\n");
            ("lib/orphan.ml", "let x = 1\n") ]))

let test_render () =
  let findings =
    analyze_snippet ~filename:"lib/fix.ml" "let same a b = a == b\n"
  in
  let text = Check_driver.render Check_driver.Text findings in
  Alcotest.(check bool) "text span" true
    (contains text "lib/fix.ml:1:17 [physical-eq]");
  let json = Check_driver.render Check_driver.Json findings in
  Alcotest.(check bool) "json rule" true
    (contains json "\"rule\":\"physical-eq\"");
  Alcotest.(check bool) "json errors" true (contains json "\"errors\":1")

(* The known-bad fixtures, one per rule, each compiled under lib/ in
   one tree with the known-good counterpart. *)
let hygiene_fixtures =
  lazy
    (let dir = fresh_dir () in
     Check_driver.analyze ~rules:hygiene_rules
       (compile ~includes:[ Lazy.force stubs ] dir
          (List.map fixture
             [ "bad/lib/r1.mli"; "bad/lib/r1.ml"; "bad/lib/r2.mli";
               "bad/lib/r2.ml"; "bad/lib/r3.mli"; "bad/lib/r3.ml";
               "bad/lib/r4.mli"; "bad/lib/r4.ml"; "bad/lib/r5.mli";
               "bad/lib/r5.ml"; "bad/lib/r6.ml"; "bad/lib/core/r7.mli";
               "bad/lib/core/r7.ml"; "good/lib/ok.mli"; "good/lib/ok.ml" ])))

let test_bad_fixtures () =
  let fired base =
    List.filter_map
      (fun (f : Finding.t) ->
         if String.equal (Filename.basename f.Finding.file) base then
           Some (f.Finding.rule, f.Finding.line)
         else None)
      (Lazy.force hygiene_fixtures)
  in
  List.iter
    (fun (base, expected) ->
       Alcotest.(check (list (pair string int))) base expected (fired base))
    [ ("r1.ml", [ ("poly-compare", 2) ]);
      ("r2.ml", [ ("raising-accessor", 2) ]);
      ("r3.ml", [ ("physical-eq", 2) ]);
      ("r4.ml", [ ("error-prefix", 2) ]);
      ("r5.ml", [ ("catch-all", 2) ]);
      ("r6.ml", [ ("mli-sibling", 1) ]);
      ( "r7.ml",
        [ ("builder-create-in-loop", 7); ("builder-create-in-loop", 13);
          ("builder-create-in-loop", 20) ] ) ]

let test_good_fixture () =
  Alcotest.(check (list string)) "good/lib/ok.ml is clean" []
    (List.filter_map
       (fun (f : Finding.t) ->
          if contains f.Finding.file "/good/" then Some (Finding.to_text f)
          else None)
       (Lazy.force hygiene_fixtures))

(* ---- purity summaries (the machinery under C7-C9) ---- *)

let test_purity_classify () =
  let units, _, _ = Lazy.force analysis in
  let project = Merlin_check.Concur.build units in
  let purity = Merlin_check.Purity.build project in
  let classify unit name =
    match
      List.find_opt
        (fun (fn : Merlin_check.Concur.fn) ->
           String.equal fn.Merlin_check.Concur.fn_unit unit
           && String.equal fn.Merlin_check.Concur.fn_name name)
        (Merlin_check.Concur.fns project)
    with
    | Some fn -> Merlin_check.Purity.classify purity fn
    | None -> Alcotest.failf "function %s.%s not inventoried" unit name
  in
  (match classify "C7_pos" "jitter" with
   | Merlin_check.Purity.Nondet trace ->
     Alcotest.(check (list string)) "direct trace is the source"
       [ "Random.float" ] trace
   | Merlin_check.Purity.Pure | Merlin_check.Purity.Det_effectful ->
     Alcotest.fail "jitter must be nondeterministic");
  (* The fixpoint charges the caller with the chain to the source. *)
  (match classify "C7_pos" "sample" with
   | Merlin_check.Purity.Nondet trace ->
     Alcotest.(check (list string)) "propagated trace"
       [ "C7_pos.jitter"; "Random.float" ] trace
   | Merlin_check.Purity.Pure | Merlin_check.Purity.Det_effectful ->
     Alcotest.fail "sample must be nondeterministic");
  (match classify "C7_neg" "double" with
   | Merlin_check.Purity.Pure -> ()
   | Merlin_check.Purity.Det_effectful | Merlin_check.Purity.Nondet _ ->
     Alcotest.fail "double must be pure");
  (* Seeded state draws are deterministic; the state mutation makes
     the function effectful at most. *)
  (match classify "C7_neg" "keyed" with
   | Merlin_check.Purity.Nondet _ ->
     Alcotest.fail "seeded Random.State must not be nondeterministic"
   | Merlin_check.Purity.Pure | Merlin_check.Purity.Det_effectful -> ());
  match classify "C9_pos" "dump" with
  | Merlin_check.Purity.Det_effectful -> ()
  | Merlin_check.Purity.Pure -> Alcotest.fail "printing is an effect"
  | Merlin_check.Purity.Nondet _ ->
    Alcotest.fail "printing must not be nondeterministic"

let test_purity_sources_table () =
  (* Every source's display name is exactly its dotted suffix — the
     message vocabulary stays greppable against the table. *)
  List.iter
    (fun (suffix, name) ->
       Alcotest.(check string) name name (String.concat "." suffix))
    Merlin_check.Purity.sources;
  (* The seeds the issue calls out are present. *)
  List.iter
    (fun name ->
       Alcotest.(check bool) name true
         (List.exists
            (fun (_, n) -> String.equal n name)
            Merlin_check.Purity.sources))
    [ "Random.int"; "Unix.gettimeofday"; "Sys.time"; "Gc.stat";
      "Domain.self"; "Sys.getenv"; "Filename.temp_file";
      "Clock.monotonic_s"; "Clock.timed" ]

(* Every sink the byte-identity suites exercise (Pool.map in
   test_exec, the hier pmap, the scheduler's speculative waves) must
   be audited by the task-closure rules — otherwise "order
   independent" is only tested, never statically guarded. *)
let test_task_sinks_cover_identity_suites () =
  let displays = List.map snd Merlin_check.Task_sites.sinks in
  List.iter
    (fun sink ->
       Alcotest.(check bool) sink true
         (List.exists (String.equal sink) displays))
    [ "Pool.submit"; "Pool.map"; "Pool.run_timeout"; "Flow_runner.run";
      "Scheduler.schedule"; "Hier.route" ]

(* ---- --rules selectors ---- *)

let test_rule_selectors () =
  (match Check_driver.resolve_selector "C7" with
   | Ok name -> Alcotest.(check string) "code" "nondet-in-task" name
   | Error msg -> Alcotest.fail msg);
  (match Check_driver.resolve_selector "c9" with
   | Ok name ->
     Alcotest.(check string) "lowercase code" "order-sensitive-fold" name
   | Error msg -> Alcotest.fail msg);
  (match Check_driver.resolve_selector "impure-cache-key" with
   | Ok name -> Alcotest.(check string) "name" "impure-cache-key" name
   | Error msg -> Alcotest.fail msg);
  match Check_driver.resolve_selector "C42" with
  | Ok name -> Alcotest.failf "bogus selector resolved to %s" name
  | Error msg ->
    Alcotest.(check bool) "error names the selector" true
      (contains msg "C42")

(* A filtered run analyzes only the selected rules, and a waiver for
   an inactive rule is not reported stale. *)
let test_rules_filter () =
  let units, errs, _ = Lazy.force analysis in
  let fs = Check_driver.analyze ~rules:[ "order-sensitive-fold" ] (units, errs) in
  let in_file base rule =
    count_rule rule
      (List.filter
         (fun (f : Finding.t) ->
            String.equal (Filename.basename f.Finding.file) base)
         fs)
  in
  Alcotest.(check int) "C9 still fires" 2 (in_file "c9_pos.ml" "order-sensitive-fold");
  Alcotest.(check int) "C1 gated off" 0 (in_file "c1_pos.ml" "domain-unsafe-capture");
  Alcotest.(check int) "C8 gated off" 0 (in_file "c8_pos.ml" "impure-cache-key");
  (* c1_waived's domain-safe waiver is unconsumed in this run, but its
     rule is inactive — it must not be called stale. *)
  Alcotest.(check int) "inactive waiver not stale" 0
    (in_file "c1_waived.ml" "stale-waiver");
  (* c9_waived's nondet-ok token belongs to an active rule and is
     consumed. *)
  Alcotest.(check int) "active waiver consumed" 0
    (in_file "c9_waived.ml" "stale-waiver")

(* ---- waiver staleness ---- *)

let test_stale_waiver () =
  let fs = findings_for "stale.ml" in
  Alcotest.(check int) "stale waiver reported" 1 (count_rule "stale-waiver" fs);
  (* A token no rule defines is reported whatever the rule filter. *)
  match
    analyze_snippet ~filename:"lib/fix.ml"
      "let x = 1 (* ch\101ck: no-such-rule *)\n"
  with
  | [ f ] ->
    Alcotest.(check string) "unknown token" "stale-waiver" f.Finding.rule;
    Alcotest.(check bool) "names the token" true
      (contains f.Finding.message "no-such-rule")
  | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs)

let test_tokens () =
  List.iter
    (fun tok ->
       Alcotest.(check bool) tok true
         (List.exists (String.equal tok) Merlin_check.Waivers.tokens))
    ([ "domain-safe"; "exn-flow"; "dead-export"; "lock-order"; "blocking-ok";
       "fd-escape"; "nondet-ok" ]
     @ hygiene_rules)

(* ---- SARIF round-trip (qcheck) ---- *)

let arb_findings =
  let open QCheck.Gen in
  let ident =
    string_size ~gen:(oneof [ char_range 'a' 'z'; return '-' ]) (int_range 1 12)
  in
  let message =
    (* printable plus the JSON-hostile characters: quotes, backslashes,
       newlines, non-ASCII bytes are exercised via printable unicode *)
    string_size ~gen:(oneof [ printable; return '"'; return '\\' ])
      (int_range 0 40)
  in
  let rule =
    (* random idents plus the real rule names, so the new concurrency
       rules' identifiers demonstrably survive the round trip *)
    oneof
      [ ident;
        oneofl
          [ "lock-order"; "blocking-under-lock"; "fd-leak";
            "domain-unsafe-capture"; "stale-baseline"; "nondet-in-task";
            "impure-cache-key"; "order-sensitive-fold" ] ]
  in
  let finding =
    map
      (fun (rule, file, msg, err) ->
         Finding.make ~file ~line:1 ~col:0 ~rule
           ~severity:(if err then Finding.Error else Finding.Warning)
           msg)
      (quad rule ident message bool)
  in
  QCheck.make
    ~print:(fun fs ->
      String.concat "\n" (List.map Finding.to_text fs))
    (list_size (int_range 0 20) finding)

let entry_equal (a : Baseline.entry) (b : Baseline.entry) =
  String.equal a.Baseline.rule b.Baseline.rule
  && String.equal a.Baseline.file b.Baseline.file
  && String.equal a.Baseline.message b.Baseline.message
  && a.Baseline.count = b.Baseline.count

(* Both render paths must load back to the same baseline: the SARIF log
   (what CI archives) and the native format (what the repo commits). *)
let sarif_roundtrip findings =
  let entries = Baseline.of_findings findings in
  let sarif =
    Merlin_check.Sarif.render ~tool_name:Check_driver.tool_name
      ~tool_version:"test" findings
  in
  match Baseline.of_string sarif with
  | Error msg -> QCheck.Test.fail_reportf "baseline rejected SARIF: %s" msg
  | Ok parsed -> (
    List.equal entry_equal entries parsed
    &&
    match
      Baseline.of_string (Baseline.to_string entries)
    with
    | Error msg -> QCheck.Test.fail_reportf "baseline rejected native: %s" msg
    | Ok native -> List.equal entry_equal entries native)

(* ---- GitHub annotations ---- *)

let test_github_render () =
  let fs =
    [ Finding.make ~file:"lib/serve/server.ml" ~line:12 ~col:4
        ~rule:"fd-leak" ~severity:Finding.Error "plain message";
      Finding.make ~file:"lib/a.ml" ~line:3 ~col:0 ~rule:"lock-order"
        ~severity:Finding.Warning "50% held\nsecond line" ]
  in
  Alcotest.(check string) "annotation lines"
    "::error file=lib/serve/server.ml,line=12,col=4::[fd-leak] plain \
     message\n\
     ::warning file=lib/a.ml,line=3,col=0::[lock-order] 50%25 \
     held%0Asecond line\n"
    (Check_driver.render Check_driver.Github fs)

(* ---- baseline staleness ---- *)

let test_baseline_prune () =
  let f rule file msg =
    Finding.make ~file ~line:1 ~col:0 ~rule ~severity:Finding.Warning msg
  in
  let baseline =
    Baseline.of_findings
      [ f "dead-export" "a.mli" "A.x is dead";
        f "dead-export" "a.mli" "A.x is dead";
        f "fd-leak" "b.ml" "gone";
        (* determinism-tier entries prune like any other rule *)
        f "nondet-in-task" "c.ml" "was waived away";
        f "order-sensitive-fold" "d.ml" "now sorted" ]
  in
  (* one of the two A.x findings remains; the rest match nothing *)
  let current = [ f "dead-export" "a.mli" "A.x is dead" ] in
  let survivors, stale, live =
    Baseline.apply_detailed baseline current
  in
  Alcotest.(check int) "nothing new" 0 (List.length survivors);
  Alcotest.(check (list (pair string int)))
    "stale residue: half of A.x, all of the rest"
    [ ("dead-export", 1); ("fd-leak", 1); ("nondet-in-task", 1);
      ("order-sensitive-fold", 1) ]
    (List.map
       (fun (e : Baseline.entry) ->
          (e.Baseline.rule, e.Baseline.count))
       stale);
  Alcotest.(check (list (pair string int)))
    "live part keeps one A.x"
    [ ("dead-export", 1) ]
    (List.map
       (fun (e : Baseline.entry) ->
          (e.Baseline.rule, e.Baseline.count))
       live);
  (* pruning then re-applying the live part absorbs exactly the current
     findings with nothing stale left *)
  let survivors', stale', _ =
    Baseline.apply_detailed live current
  in
  Alcotest.(check int) "pruned baseline still absorbs" 0
    (List.length survivors');
  Alcotest.(check int) "and is exact" 0 (List.length stale')

let suite =
  ( "check",
    [ Alcotest.test_case "loader merges units" `Quick test_loader;
      Alcotest.test_case "C1 flags shared mutation" `Quick test_c1_positive;
      Alcotest.test_case "C1 accepts local/locked" `Quick test_c1_negative;
      Alcotest.test_case "C1 honors waiver" `Quick test_c1_waived;
      Alcotest.test_case "C2 flags unhandled raise" `Quick test_c2_positive;
      Alcotest.test_case "C2 accepts handled raise" `Quick test_c2_negative;
      Alcotest.test_case "C3 dead vs used vs waived" `Quick test_c3;
      Alcotest.test_case "C4 flags lock cycle" `Quick test_c4_positive;
      Alcotest.test_case "C4 accepts consistent nesting" `Quick
        test_c4_negative;
      Alcotest.test_case "C4 spec inversion" `Quick test_c4_spec_inversion;
      Alcotest.test_case "C4 spec parser" `Quick test_spec_parse;
      Alcotest.test_case "C4 honors waiver" `Quick test_c4_waived;
      Alcotest.test_case "C5 flags blocking under lock" `Quick
        test_c5_positive;
      Alcotest.test_case "C5 accepts classic wait" `Quick test_c5_negative;
      Alcotest.test_case "C5 honors waiver" `Quick test_c5_waived;
      Alcotest.test_case "C6 flags leaking descriptors" `Quick
        test_c6_positive;
      Alcotest.test_case "C6 accepts discharged ownership" `Quick
        test_c6_negative;
      Alcotest.test_case "C6 honors waiver" `Quick test_c6_waived;
      Alcotest.test_case "C7 flags nondet in task" `Quick test_c7_positive;
      Alcotest.test_case "C7 accepts seeded state" `Quick test_c7_negative;
      Alcotest.test_case "C7 honors waiver" `Quick test_c7_waived;
      Alcotest.test_case "C8 flags impure keys" `Quick test_c8_positive;
      Alcotest.test_case "C8 accepts request keys" `Quick test_c8_negative;
      Alcotest.test_case "C8 honors waiver" `Quick test_c8_waived;
      Alcotest.test_case "C9 flags unsorted traversal" `Quick
        test_c9_positive;
      Alcotest.test_case "C9 accepts sorted product" `Quick test_c9_negative;
      Alcotest.test_case "C9 honors waiver" `Quick test_c9_waived;
      Alcotest.test_case "R1 poly-compare" `Quick test_poly_compare;
      Alcotest.test_case "R1 passes an int compare" `Quick
        test_poly_compare_int;
      Alcotest.test_case "R1 flags a record =" `Quick
        test_poly_compare_record;
      Alcotest.test_case "R2 raising-accessor" `Quick test_raising_accessor;
      Alcotest.test_case "R2 flags an alias" `Quick
        test_raising_accessor_alias;
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
      Alcotest.test_case "rendering" `Quick test_render;
      Alcotest.test_case "bad fixtures fire on their line" `Quick
        test_bad_fixtures;
      Alcotest.test_case "good fixture is clean" `Quick test_good_fixture;
      Alcotest.test_case "purity fixpoint classifies" `Quick
        test_purity_classify;
      Alcotest.test_case "purity source table" `Quick
        test_purity_sources_table;
      Alcotest.test_case "task sinks cover identity suites" `Quick
        test_task_sinks_cover_identity_suites;
      Alcotest.test_case "--rules selectors" `Quick test_rule_selectors;
      Alcotest.test_case "--rules filtered analysis" `Quick
        test_rules_filter;
      Alcotest.test_case "stale waiver reported" `Quick test_stale_waiver;
      Alcotest.test_case "waiver tokens" `Quick test_tokens;
      Alcotest.test_case "github annotations" `Quick test_github_render;
      Alcotest.test_case "baseline prune split" `Quick test_baseline_prune;
      qtest ~count:100 "SARIF round-trips through baseline" arb_findings
        sarif_roundtrip ])
