open Merlin_order
open Merlin_tech
open Merlin_net

let arb_perm =
  QCheck.make
    ~print:(fun o -> Format.asprintf "%a" Order.pp o)
    QCheck.Gen.(
      int_range 1 8 >|= fun n ->
      let st = Random.State.make [| n; 99 |] in
      let a = Array.init n (fun i -> i) in
      for i = n - 1 downto 1 do
        let j = Random.State.int st (i + 1) in
        let t = a.(i) in
        a.(i) <- a.(j);
        a.(j) <- t
      done;
      a)

let qtest name ?(count = 100) arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb prop)

let test_identity () =
  Alcotest.(check bool) "is permutation" true (Order.is_permutation (Order.identity 5));
  Alcotest.(check (list int)) "values" [ 0; 1; 2; 3; 4 ]
    (Order.to_list (Order.identity 5))

let test_positions () =
  let o = Order.of_list [ 2; 0; 1 ] in
  let pos = Order.positions o in
  Alcotest.(check int) "sink 2 at position 0" 0 pos.(2);
  Alcotest.(check int) "sink 0 at position 1" 1 pos.(0);
  Alcotest.(check int) "sink 1 at position 2" 2 pos.(1)

let test_swap () =
  let o = Order.of_list [ 0; 1; 2 ] in
  Alcotest.(check (list int)) "swap 0" [ 1; 0; 2 ] (Order.to_list (Order.swap_at o 0));
  Alcotest.check_raises "out of range"
    (Invalid_argument "Order.swap_at: index out of range") (fun () ->
        ignore (Order.swap_at o 2))

let test_neighborhood_def4 () =
  (* Example 2 of the paper. *)
  let pi = Order.identity 9 in
  let pi' = Order.of_list [ 0; 2; 1; 3; 4; 5; 7; 6; 8 ] in
  Alcotest.(check bool) "paper example 2" true (Order.in_neighborhood pi pi');
  let far = Order.of_list [ 2; 0; 1; 3; 4; 5; 6; 7; 8 ] in
  Alcotest.(check bool) "rotation is too far" false (Order.in_neighborhood pi far)

let test_neighborhood_enumeration () =
  (* |N| = F(n+1): 1, 2, 3, 5, 8, 13 for n = 1..6.  Theorem 1 prints the
     Binet form with an n+2 index; enumeration pins the indexing down. *)
  List.iter
    (fun (n, expect) ->
       let nb = Order.neighborhood (Order.identity n) in
       Alcotest.(check int) (Printf.sprintf "count n=%d" n) expect (List.length nb);
       Alcotest.(check int) "closed form" expect (Order.neighborhood_size n))
    [ (1, 1); (2, 2); (3, 3); (4, 5); (5, 8); (6, 13) ]

let test_theorem1_closed_form_is_integer () =
  for n = 1 to 20 do
    let v = Order.theorem1_closed_form n in
    Alcotest.(check (float 1e-6))
      (Printf.sprintf "integer for n=%d" n)
      (Float.round v) v;
    (* The paper's Binet form is the next Fibonacci number up from the
       enumerated count: Binet(n) = F(n+2) = |N| for n+1 sinks. *)
    Alcotest.(check (float 1e-6))
      (Printf.sprintf "one index up for n=%d" n)
      (float_of_int (Order.neighborhood_size (n + 1)))
      v
  done

let test_tsp_improves () =
  let tech = Tech.default in
  let net = Net_gen.random_net ~seed:5 ~name:"tsp" ~n:10 tech in
  let nn = Tsp.order net in
  let id = Order.identity 10 in
  Alcotest.(check bool) "tour no longer than identity order" true
    (Tsp.tour_length net nn <= Tsp.tour_length net id)

let props =
  [ qtest "neighborhood members satisfy Def 4" arb_perm (fun o ->
        List.for_all (Order.in_neighborhood o) (Order.neighborhood o));
    qtest "neighborhood members distinct" arb_perm (fun o ->
        let nb = List.map Order.to_list (Order.neighborhood o) in
        List.length nb
        = List.length (List.sort_uniq (List.compare Int.compare) nb));
    qtest "neighborhood closed-form count" arb_perm (fun o ->
        List.length (Order.neighborhood o)
        = Order.neighborhood_size (Order.length o));
    qtest "in_neighborhood symmetric (Definition 1)"
      (QCheck.pair arb_perm arb_perm)
      (fun (a, b) ->
         Order.length a <> Order.length b
         || Order.in_neighborhood a b = Order.in_neighborhood b a);
    qtest "swap stays in neighborhood" arb_perm (fun o ->
        Order.length o < 2
        || List.for_all
             (fun i -> Order.in_neighborhood o (Order.swap_at o i))
             (List.init (Order.length o - 1) (fun i -> i)));
    qtest "neighborhood members are permutations" arb_perm (fun o ->
        List.for_all Order.is_permutation (Order.neighborhood o)) ]

let heuristics_tests =
  let tech = Tech.default in
  let net = Net_gen.random_net ~seed:11 ~name:"h" ~n:9 tech in
  [ Alcotest.test_case "required time order sorted" `Quick (fun () ->
        let o = Heuristics.by_required_time net in
        let reqs =
          List.map (fun i -> (Net.sink net i).Sink.req) (Order.to_list o)
        in
        Alcotest.(check bool) "sorted" true
          (List.equal Float.equal (List.sort Float.compare reqs) reqs));
    Alcotest.test_case "random order is permutation" `Quick (fun () ->
        Alcotest.(check bool) "perm" true
          (Order.is_permutation (Heuristics.random ~seed:3 net)));
    Alcotest.test_case "random order deterministic" `Quick (fun () ->
        Alcotest.(check bool) "equal" true
          (Order.equal (Heuristics.random ~seed:3 net)
             (Heuristics.random ~seed:3 net)));
    Alcotest.test_case "x sweep is permutation" `Quick (fun () ->
        Alcotest.(check bool) "perm" true
          (Order.is_permutation (Heuristics.by_x_sweep net))) ]

let suite =
  ( "order",
    [ Alcotest.test_case "identity" `Quick test_identity;
      Alcotest.test_case "positions" `Quick test_positions;
      Alcotest.test_case "swap" `Quick test_swap;
      Alcotest.test_case "neighborhood def4" `Quick test_neighborhood_def4;
      Alcotest.test_case "neighborhood counts (Thm 1)" `Quick
        test_neighborhood_enumeration;
      Alcotest.test_case "closed form integral" `Quick
        test_theorem1_closed_form_is_integer;
      Alcotest.test_case "tsp improves" `Quick test_tsp_improves ]
    @ props @ heuristics_tests )
