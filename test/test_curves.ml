open Merlin_curves

let sol ?(data = 0) req load area = Solution.make ~req ~load ~area data

let arb_sol =
  QCheck.make
    ~print:(fun s ->
        Printf.sprintf "(req=%.1f load=%.2f area=%.2f)" s.Solution.req
          s.Solution.load s.Solution.area)
    QCheck.Gen.(
      map3
        (fun r l a -> sol (float_of_int r) (float_of_int l) (float_of_int a))
        (int_range 0 20) (int_range 0 20) (int_range 0 20))

let arb_sols = QCheck.list_of_size (QCheck.Gen.int_range 0 40) arb_sol

(* The one fixture helper: a curve from a solution list, through the
   builder every production curve goes through, capped at [max_size]
   points when given. *)
let of_list ?max_size sols =
  let b = Curve.Builder.create () in
  List.iter (Curve.Builder.add b) sols;
  Curve.Builder.build ?max_size b

let qtest name ?(count = 300) arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb prop)

(* Reference implementation: keep exactly the solutions not strictly
   dominated by any other (and dedup equal coordinates). *)
let brute_frontier sols =
  let key s = (s.Solution.req, s.Solution.load, s.Solution.area) in
  let cmp3 a b =
    let (ar, al, aa) = key a and (br, bl, ba) = key b in
    let c = Float.compare ar br in
    if c <> 0 then c
    else
      let c = Float.compare al bl in
      if c <> 0 then c else Float.compare aa ba
  in
  let sols = List.sort_uniq cmp3 sols in
  List.filter
    (fun s ->
       not
         (List.exists
            (fun x -> Curve_reference.dominates x s && cmp3 x s <> 0)
            sols))
    sols

(* Test-local non-inferiority oracle: every pair compared directly, with
   its own dominance test, so it shares no code with the staircase sweep
   of Curve.Builder.build (or Contract's cross-check) it judges.  Equal
   coordinates never dominate each other. *)
let non_inferior c =
  let arr = Array.of_list (Curve.to_list c) in
  let beats x s =
    x.Solution.req >= s.Solution.req && x.Solution.load <= s.Solution.load
    && x.Solution.area <= s.Solution.area
    && (x.Solution.req > s.Solution.req || x.Solution.load < s.Solution.load
        || x.Solution.area < s.Solution.area)
  in
  Array.for_all (fun s -> not (Array.exists (fun x -> beats x s) arr)) arr

(* The invariant pair checked by Contract: strict compare_key order and
   pairwise non-inferiority. *)
let key_sorted c =
  let rec ok = function
    | [] | [ _ ] -> true
    | a :: (b :: _ as rest) -> Solution.compare_key a b < 0 && ok rest
  in
  ok (Curve.to_list c)

let invariants c = non_inferior c && key_sorted c

let test_dominates () =
  let a = sol 10.0 2.0 3.0 and b = sol 8.0 4.0 5.0 in
  Alcotest.(check bool) "a dominates b" true (Curve_reference.dominates a b);
  Alcotest.(check bool) "b does not dominate a" false (Curve_reference.dominates b a);
  Alcotest.(check bool) "self" true (Curve_reference.dominates a a)

let test_add_prunes () =
  let c = of_list [ sol 10.0 2.0 3.0; sol 8.0 4.0 5.0 ] in
  Alcotest.(check int) "dominated dropped" 1 (Curve.size c);
  let c = of_list (sol 12.0 1.0 1.0 :: Curve.to_list c) in
  Alcotest.(check int) "new dominator replaces" 1 (Curve.size c)

let test_incomparable_kept () =
  let c =
    of_list [ sol 10.0 2.0 3.0; sol 12.0 5.0 3.0; sol 8.0 2.0 1.0 ]
  in
  Alcotest.(check int) "three incomparable" 3 (Curve.size c)

let test_best_queries () =
  let c =
    of_list
      [ sol ~data:1 10.0 2.0 8.0; sol ~data:2 7.0 2.0 4.0; sol ~data:3 4.0 2.0 1.0 ]
  in
  let req s = s.Solution.req in
  Alcotest.(check (float 0.0)) "best req" 10.0
    (req (Option.get (Curve.best_req c)));
  Alcotest.(check (float 0.0)) "best under area 5" 7.0
    (req (Option.get (Curve.best_under_area c ~area:5.0)));
  Alcotest.(check bool) "infeasible area" true
    (Option.is_none (Curve.best_under_area c ~area:0.5));
  Alcotest.(check (float 0.0)) "min area with req >= 6" 4.0
    (Option.get (Curve.best_min_area c ~req:6.0)).Solution.area;
  Alcotest.(check bool) "infeasible req" true
    (Option.is_none (Curve.best_min_area c ~req:11.0))

let test_cap_keeps_extremes () =
  (* A genuine 20-point frontier: req and load grow together. *)
  let sols = List.init 20 (fun i -> sol (float_of_int i) (float_of_int i) 0.0) in
  Alcotest.(check int) "full frontier" 20 (Curve.size (of_list sols));
  let capped = of_list ~max_size:5 sols in
  Alcotest.(check bool) "within cap" true (Curve.size capped <= 5);
  let reqs = List.map (fun s -> s.Solution.req) (Curve.to_list capped) in
  Alcotest.(check bool) "max req kept" true (List.mem 19.0 reqs);
  Alcotest.(check bool) "min load kept" true (List.mem 0.0 reqs)

let test_cap_keeps_min_area () =
  (* req up, load up, area up: min area is the last element and must be
     kept (the van Ginneken "unbuffered variant survives" guarantee). *)
  let capped =
    of_list ~max_size:6
      (List.init 30 (fun i ->
           sol (float_of_int i) (float_of_int i) (float_of_int i)))
  in
  let areas = List.map (fun s -> s.Solution.area) (Curve.to_list capped) in
  Alcotest.(check bool) "min area kept" true (List.mem 0.0 areas)

let test_quantise_pessimistic () =
  let s =
    Solution.quantise ~req_grid:2.0 ~load_grid:1.0 ~area_grid:2.0
      (sol 9.9 2.1 3.3)
  in
  Alcotest.(check (float 0.0)) "req down" 8.0 s.Solution.req;
  Alcotest.(check (float 0.0)) "load up" 3.0 s.Solution.load;
  Alcotest.(check (float 0.0)) "area up" 4.0 s.Solution.area

(* A cap below 2 cannot keep both ends of a curve: rejected up front,
   whatever the builder holds. *)
let test_max_size_below_2 () =
  let expected = Invalid_argument "Curve.Builder.build: max_size < 2" in
  List.iter
    (fun max_size ->
       Alcotest.check_raises "empty builder" expected (fun () ->
           ignore (of_list ~max_size []));
       Alcotest.check_raises "full builder" expected (fun () ->
           ignore
             (of_list ~max_size
                (List.init 10 (fun i ->
                     sol (float_of_int i) (float_of_int i) 0.0)))))
    [ 1; 0; -3 ]

let props =
  [ qtest "of_list is a frontier" arb_sols (fun sols ->
        non_inferior (of_list sols));
    qtest "of_list matches brute force frontier size" arb_sols (fun sols ->
        Curve.size (of_list sols)
        = List.length (brute_frontier sols));
    qtest "add keeps the best req" arb_sols (fun sols ->
        List.is_empty sols
        ||
        let c = of_list sols in
        let best =
          List.fold_left (fun acc s -> max acc s.Solution.req) neg_infinity sols
        in
        (Option.get (Curve.best_req c)).Solution.req = best);
    qtest "merged curves = of_list of concat" (QCheck.pair arb_sols arb_sols)
      (fun (a, b) ->
         let u = of_list (Curve.to_list (of_list a) @ Curve.to_list (of_list b)) in
         Curve.size u = Curve.size (of_list (a @ b)));
    qtest "cap never exceeds" arb_sols (fun sols ->
        Curve.size (of_list ~max_size:4 sols) <= 4);
    qtest "of_list satisfies curve invariants" arb_sols (fun sols ->
        invariants (of_list sols));
    qtest "merged curves satisfy curve invariants"
      (QCheck.pair arb_sols arb_sols)
      (fun (a, b) ->
         invariants
           (of_list (Curve.to_list (of_list a) @ Curve.to_list (of_list b))));
    qtest "cap satisfies curve invariants" arb_sols (fun sols ->
        invariants (of_list ~max_size:4 sols));
    (* The *PTREE DP quantises every candidate as it pushes it
       (Solution.quantise's rounding); the exact build over the bucketed
       coordinates must still give a frontier. *)
    qtest "quantised pushes still a frontier" arb_sols (fun sols ->
        non_inferior
          (of_list
             (List.map
                (Solution.quantise ~req_grid:3.0 ~load_grid:2.0 ~area_grid:5.0)
                sols)));
    qtest "quantised pushes (load only) satisfy curve invariants" arb_sols
      (fun sols ->
         invariants
           (of_list
              (List.map
                 (Solution.quantise ~req_grid:0.0 ~load_grid:2.5 ~area_grid:0.0)
                 sols)));
    qtest "operations pass enabled contracts" (QCheck.pair arb_sols arb_sols)
      (fun (a, b) ->
         Contract.set_enabled true;
         Fun.protect
           ~finally:(fun () -> Contract.set_enabled false)
           (fun () ->
              let c =
                of_list ~max_size:4
                  (Curve.to_list (of_list a) @ Curve.to_list (of_list b))
              in
              (* Re-pushed quantised, as the *PTREE DP pushes every
                 candidate. *)
              let quantise =
                Solution.quantise ~req_grid:3.0 ~load_grid:2.0 ~area_grid:5.0
              in
              invariants (of_list (List.map quantise (Curve.to_list c)))));
    qtest "best_under_area matches brute force"
      (QCheck.pair arb_sols (QCheck.float_range 0.0 20.0))
      (fun (sols, budget) ->
         let c = of_list sols in
         let brute =
           List.filter (fun s -> s.Solution.area <= budget) (Curve.to_list c)
           |> List.fold_left
                (fun acc s ->
                   match acc with
                   | None -> Some s
                   | Some b -> if s.Solution.req > b.Solution.req then Some s else acc)
                None
         in
         match (Curve.best_under_area c ~area:budget, brute) with
         | None, None -> true
         | Some a, Some b -> a.Solution.req = b.Solution.req
         | _ -> false) ]

(* [check] over the columns of [sols], as a curve stores them; returns
   how many points it accepted. *)
let check_columns sols =
  let col f = Float.Array.map_from_array f sols in
  Contract.check ~name:"unit"
    (col (fun s -> s.Solution.req))
    (col (fun s -> s.Solution.load))
    (col (fun s -> s.Solution.area));
  Array.length sols

let test_contract_rejects () =
  Contract.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Contract.set_enabled false)
    (fun () ->
       Alcotest.check_raises "unsorted rejected"
         (Invalid_argument
            "Contract.check: unit: solutions out of compare_key order")
         (fun () -> ignore (check_columns [| sol 1.0 1.0 1.0; sol 5.0 0.0 0.0 |]));
       Alcotest.check_raises "inferior solution rejected"
         (Invalid_argument
            "Contract.check: unit: curve holds an inferior solution")
         (fun () -> ignore (check_columns [| sol 5.0 0.0 0.0; sol 1.0 1.0 1.0 |]));
       let ok = [| sol 5.0 0.0 1.0; sol 1.0 0.0 0.0 |] in
       Alcotest.(check int) "valid curve accepted" 2 (check_columns ok))

let test_contract_disabled () =
  Contract.set_enabled false;
  (* With contracts off, even bogus columns flow through untouched. *)
  Alcotest.(check int) "no check when disabled" 2
    (check_columns [| sol 1.0 1.0 1.0; sol 5.0 0.0 0.0 |])

let suite =
  ( "curves",
    [ Alcotest.test_case "dominates" `Quick test_dominates;
      Alcotest.test_case "contract rejects violations" `Quick
        test_contract_rejects;
      Alcotest.test_case "contract disabled is transparent" `Quick
        test_contract_disabled;
      Alcotest.test_case "add prunes" `Quick test_add_prunes;
      Alcotest.test_case "incomparable kept" `Quick test_incomparable_kept;
      Alcotest.test_case "best queries" `Quick test_best_queries;
      Alcotest.test_case "cap keeps extremes" `Quick test_cap_keeps_extremes;
      Alcotest.test_case "cap keeps min area" `Quick test_cap_keeps_min_area;
      Alcotest.test_case "quantise pessimistic" `Quick test_quantise_pessimistic;
      Alcotest.test_case "max_size below 2 rejected" `Quick
        test_max_size_below_2 ]
    @ props )
