open Merlin_curves

(* Observational equivalence of the array-backed batch kernel (Curve,
   Curve.Builder) against the retained list implementation
   (Curve_reference).  Payloads are the push indices, so the properties
   check not just the frontier coordinates but which candidate won each
   tie — the batch kernel must keep the first-pushed among equal keys,
   exactly like folding Curve_reference.add over the same sequence.
   Every curve here is built through Curve.Builder, the only
   construction path. *)

let sol ~data req load area = Solution.make ~req ~load ~area data

(* Small integer coordinates so random bags are dense in ties and
   dominations. *)
let gen_coords =
  QCheck.Gen.(
    triple (int_range 0 8) (int_range 0 8) (int_range 0 8)
    |> map (fun (r, l, a) ->
        (float_of_int r, float_of_int l, float_of_int a)))

let arb_bag =
  QCheck.make
    ~print:(fun bag ->
      String.concat "; "
        (List.map (fun (r, l, a) -> Printf.sprintf "(%g,%g,%g)" r l a) bag))
    QCheck.Gen.(list_size (int_range 0 60) gen_coords)

let bag_to_sols bag =
  List.mapi (fun i (r, l, a) -> sol ~data:i r l a) bag

let obs_ref c =
  List.map
    (fun s -> (s.Solution.req, s.Solution.load, s.Solution.area, s.Solution.data))
    c

let obs c = obs_ref (Curve_reference.of_curve c)

(* Observations compare exactly, with dedicated equalities:
   coordinates by Float.equal, tie winners by push index. *)
let same_obs xs ys =
  List.equal
    (fun (r, l, a, d) (r', l', a', d') ->
       Float.equal r r' && Float.equal l l' && Float.equal a a'
       && Int.equal d d')
    xs ys

let of_list = Test_curves.of_list

(* A solution with its payload mapped through [f]. *)
let map_payload f (s : _ Solution.t) = { s with Solution.data = f s.Solution.data }

(* A cap from 2 up to 6: the small caps, where the four kept extremes
   overflow and are truncated, and the ones with room for a spread. *)
let arb_capped_bag = QCheck.pair arb_bag (QCheck.int_range 2 6)

let qtest name ?(count = 500) arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb prop)

let equiv =
  [ qtest "of_list = reference (coords and tie winners)" arb_bag (fun bag ->
        let sols = bag_to_sols bag in
        same_obs (obs (of_list sols)) (obs_ref (Curve_reference.of_list sols)));
    qtest "Builder.build = reference fold add" arb_bag (fun bag ->
        let sols = bag_to_sols bag in
        let bld = Curve.Builder.create () in
        List.iter (Curve.Builder.add bld) sols;
        same_obs
          (obs (Curve.Builder.build bld))
          (obs_ref
             (List.fold_left Curve_reference.add Curve_reference.empty sols)));
    qtest "add_curve twice = reference union" (QCheck.pair arb_bag arb_bag)
      (fun (ba, bb) ->
         let sa = bag_to_sols ba
         and sb = List.mapi (fun i (r, l, a) -> sol ~data:(1000 + i) r l a) bb in
         let bld = Curve.Builder.create () in
         Curve.Builder.add_curve bld (of_list sa);
         Curve.Builder.add_curve bld (of_list sb);
         same_obs
           (obs (Curve.Builder.build bld))
           (obs_ref
              (Curve_reference.union (Curve_reference.of_list sa)
                 (Curve_reference.of_list sb))));
    qtest "cleared, reused builder = reference map_solutions"
      (QCheck.pair arb_bag arb_bag)
      (fun (b0, bag) ->
         (* The van Ginneken walk: one builder, cleared between batches,
            rebuilds each curve pushed through a wire or a buffer. *)
         let shift s =
           { s with Solution.req = s.Solution.req +. 1.0;
                    Solution.load = s.Solution.load *. 2.0 }
         in
         let sols = bag_to_sols bag in
         let bld = Curve.Builder.create () in
         List.iter (Curve.Builder.add bld) (bag_to_sols b0);
         ignore (Curve.Builder.build bld);
         Curve.Builder.clear bld;
         List.iter
           (fun s -> Curve.Builder.add bld (shift s))
           (Curve_reference.of_curve (of_list sols));
         same_obs
           (obs (Curve.Builder.build bld))
           (obs_ref
              (Curve_reference.map_solutions shift
                 (Curve_reference.of_list sols))));
    qtest "cap = reference cap" arb_bag (fun bag ->
        let sols = bag_to_sols bag in
        same_obs
          (obs (of_list ~max_size:5 sols))
          (obs_ref
             (Curve_reference.cap ~max_size:5 (Curve_reference.of_list sols))));
    qtest "build_map ~max_size = reference cap of the mapped frontier"
      arb_capped_bag (fun (bag, max_size) ->
        (* Capping inside the build and materialising only the kept
           points equals mapping the whole frontier, then capping it. *)
        let sols = bag_to_sols bag in
        let f i = (7 * i) + 1 in
        let bld = Curve.Builder.create () in
        List.iter (Curve.Builder.add bld) sols;
        same_obs
          (obs (Curve.Builder.build_map ~max_size ~f bld))
          (obs_ref
             (Curve_reference.cap ~max_size
                (List.map (map_payload f) (Curve_reference.of_list sols)))));
    qtest "build_map calls ~f once per returned point, kept = frontier width"
      arb_capped_bag (fun (bag, max_size) ->
        let sols = bag_to_sols bag in
        let seen = ref [] in
        let bld = Curve.Builder.create () in
        List.iter (Curve.Builder.add bld) sols;
        let c =
          Curve.Builder.build_map ~max_size bld ~f:(fun i ->
              seen := i :: !seen;
              i)
        in
        List.equal Int.equal (List.rev !seen)
          (List.map (fun s -> s.Solution.data) (Curve_reference.of_curve c))
        && Int.equal (Curve.Builder.kept bld)
             (Curve_reference.size (Curve_reference.of_list sols)));
    qtest "quantise-then-push, capped = capped quantise-then-add reference"
      arb_capped_bag (fun (bag, max_size) ->
        (* The *PTREE DP's order: quantise each candidate as it is
           pushed, then cap inside the build.  It must equal quantising
           each candidate, folding reference add in the same order, and
           capping the reference frontier. *)
        let quantise =
          Solution.quantise ~req_grid:3.0 ~load_grid:2.0 ~area_grid:5.0
        in
        let sols = List.map quantise (bag_to_sols bag) in
        let bld = Curve.Builder.create () in
        List.iter
          (fun s ->
             Curve.Builder.push bld ~req:s.Solution.req ~load:s.Solution.load
               ~area:s.Solution.area s.Solution.data)
          sols;
        same_obs
          (obs (Curve.Builder.build ~max_size bld))
          (obs_ref
             (Curve_reference.cap ~max_size
                (List.fold_left Curve_reference.add Curve_reference.empty
                   sols))));
    qtest "best_min_area early-exit = reference fold"
      (QCheck.pair arb_bag (QCheck.float_range 0.0 9.0))
      (fun (bag, req) ->
         let sols = bag_to_sols bag in
         let a = Curve.best_min_area (of_list sols) ~req
         and b =
           Curve_reference.best_min_area (Curve_reference.of_list sols) ~req
         in
         match (a, b) with
         | None, None -> true
         | Some x, Some y ->
           x.Solution.area = y.Solution.area
           && x.Solution.req = y.Solution.req
           && x.Solution.data = y.Solution.data
         | _ -> false) ]

(* The arena surface of the builder (DESIGN.md §9): cleared-and-reused
   builders and the flat cost record. *)
let build_bag ?max_size bag =
  let bld = Curve.Builder.create () in
  List.iter (Curve.Builder.add bld) (bag_to_sols bag);
  Curve.Builder.build ?max_size bld

let modes =
  [ qtest "cleared builder = fresh (across capped/uncapped cycles)"
      (QCheck.pair arb_bag arb_bag)
      (fun (b1, b2) ->
         (* One long-lived builder runs capped and uncapped builds over
            two bags; after every clear it must be observationally a
            fresh builder, scratch reuse notwithstanding. *)
         let bld = Curve.Builder.create () in
         let cycle ?max_size bag =
           Curve.Builder.clear bld;
           List.iter (Curve.Builder.add bld) (bag_to_sols bag);
           obs (Curve.Builder.build ?max_size bld)
         in
         let m = 3 in
         same_obs (cycle ~max_size:m b1) (obs (build_bag ~max_size:m b1))
         && same_obs (cycle b2) (obs (build_bag b2))
         && same_obs (cycle ~max_size:m b2) (obs (build_bag ~max_size:m b2))
         && same_obs (cycle b1) (obs (build_bag b1)));
    qtest "push_cost = push" arb_bag (fun bag ->
        let bld = Curve.Builder.create () in
        let c = Curve.Builder.new_cost () in
        List.iteri
          (fun i (r, l, a) ->
             c.Curve.Builder.creq <- r;
             c.Curve.Builder.cload <- l;
             c.Curve.Builder.carea <- a;
             Curve.Builder.push_cost bld c i)
          bag;
        same_obs (obs (Curve.Builder.build bld)) (obs (build_bag bag))) ]

(* ---------- Columnar curves against the reference, bitwise ---------- *)

(* A curve read straight off its columns, coordinates as bit patterns. *)
let columns c =
  let bits col i = Int64.bits_of_float (Float.Array.get col i) in
  List.init (Curve.size c) (fun i ->
      (bits c.Curve.req i, bits c.Curve.load i, bits c.Curve.area i,
       c.Curve.data.(i)))

let bits_of_sols sols =
  let bits = Int64.bits_of_float in
  List.map
    (fun s ->
       (bits s.Solution.req, bits s.Solution.load, bits s.Solution.area,
        s.Solution.data))
    sols

let same_bits xs ys =
  List.equal
    (fun (r, l, a, d) (r', l', a', d') ->
       Int64.equal r r' && Int64.equal l l' && Int64.equal a a'
       && Int.equal d d')
    xs ys

(* The one-point view agrees with the columns it is read from. *)
let view_agrees c =
  same_bits (bits_of_sols (Curve_reference.of_curve c)) (columns c)

(* Bags for the bitwise oracles: integer-valued coordinates, dense in
   ties and dominations, or continuous ones; a flat bag has zero areas,
   signed zeros mixed, as PTREE's curves do.  With a cap of 2-12 or
   none. *)
let gen_oracle_coords =
  QCheck.Gen.(
    pair bool bool >>= fun (flat, lattice) ->
    let coord =
      if lattice then map float_of_int (int_range 0 8) else float_range 0.0 8.0
    in
    let area = if flat then oneofl [ 0.0; -0.0 ] else coord in
    list_size (int_range 0 40) (triple coord coord area))

let print_oracle_bag (bag, cap) =
  Printf.sprintf "cap %s: %s"
    (match cap with None -> "none" | Some m -> string_of_int m)
    (String.concat "; "
       (List.map (fun (r, l, a) -> Printf.sprintf "(%h,%h,%h)" r l a) bag))

let arb_oracle_bag =
  QCheck.make ~print:print_oracle_bag
    QCheck.Gen.(pair gen_oracle_coords (opt (int_range 2 12)))

let arb_oracle_pair =
  QCheck.make
    ~print:(fun (a, b) -> print_oracle_bag a ^ " / " ^ print_oracle_bag b)
    QCheck.Gen.(
      pair
        (pair gen_oracle_coords (opt (int_range 2 12)))
        (pair gen_oracle_coords (opt (int_range 2 12))))

(* The reference curve of a bag, capped like [of_list ?max_size]. *)
let reference ?max_size sols =
  let c = Curve_reference.of_list sols in
  match max_size with
  | None -> c
  | Some max_size -> Curve_reference.cap ~max_size c

let columnar =
  [ qtest "singleton = reference one-point curve (bitwise)" arb_oracle_bag
      (fun (bag, _) ->
         List.for_all
           (fun s ->
              let c = Curve.singleton s in
              Int.equal (Curve.size c) 1
              && same_bits (columns c) (bits_of_sols [ s ])
              && view_agrees c)
           (bag_to_sols bag));
    qtest "map_data = reference map_solutions (bitwise, columns shared)"
      arb_oracle_bag (fun (bag, max_size) ->
        let sols = bag_to_sols bag in
        let f i = (3 * i) + 1 in
        let c = of_list ?max_size sols in
        let m = Curve.map_data f c in
        same_bits (columns m)
          (bits_of_sols
             (Curve_reference.map_solutions (map_payload f)
                (reference ?max_size sols)))
        && view_agrees m
        && m.Curve.req == c.Curve.req (* check: physical-eq *)
        && m.Curve.load == c.Curve.load (* check: physical-eq *)
        && m.Curve.area == c.Curve.area (* check: physical-eq *));
    qtest "add_curve of capped curves = capped reference union (bitwise)"
      arb_oracle_pair (fun ((ba, ca), (bb, cb)) ->
        (* Two curves, each capped or not, merged through add_curve with
           the empty curve between them, and the merge capped by the
           second cap: the reference unions the reference curves. *)
        let sa = bag_to_sols ba
        and sb = List.mapi (fun i (r, l, a) -> sol ~data:(1000 + i) r l a) bb in
        let bld = Curve.Builder.create () in
        Curve.Builder.add_curve bld (of_list ?max_size:ca sa);
        Curve.Builder.add_curve bld Curve.empty;
        Curve.Builder.add_curve bld (of_list ?max_size:ca sb);
        let got = Curve.Builder.build ?max_size:cb bld in
        let union =
          Curve_reference.union (reference ?max_size:ca sa)
            (reference ?max_size:ca sb)
        in
        let expected =
          match cb with
          | None -> union
          | Some max_size -> Curve_reference.cap ~max_size union
        in
        same_bits (columns got) (bits_of_sols expected) && view_agrees got);
    qtest "empty = reference empty" arb_oracle_bag (fun (bag, max_size) ->
        (* The empty curve holds nothing, answers no query, maps to
           itself and adds nothing to a bag. *)
        let e : int Curve.t = Curve.empty in
        let bld = Curve.Builder.create () in
        Curve.Builder.add_curve bld e;
        let alone = Curve.Builder.build ?max_size bld in
        List.iter (Curve.Builder.add bld) (bag_to_sols bag);
        Curve.Builder.add_curve bld e;
        Curve.is_empty e && Int.equal (Curve.size e) 0
        && same_bits (columns e) (bits_of_sols Curve_reference.empty)
        && view_agrees e
        && Curve.is_empty (Curve.map_data succ e)
        && Option.is_none (Curve.best_req e)
        && Option.is_none (Curve.best_under_area e ~area:infinity)
        && Option.is_none (Curve.best_min_area e ~req:neg_infinity)
        && Curve.is_empty alone
        && same_bits
             (columns (Curve.Builder.build ?max_size bld))
             (bits_of_sols (reference ?max_size (bag_to_sols bag)))) ]

(* A contract over the columns still fires when they are not a curve:
   out of order by each key in turn (req, then load, then area), a
   repeated point, and a point dominated by a non-adjacent one. *)
let test_contract_on_columns () =
  let check req load area =
    Contract.check ~name:"columns" (Float.Array.of_list req)
      (Float.Array.of_list load) (Float.Array.of_list area)
  in
  let unsorted = "Contract.check: columns: solutions out of compare_key order"
  and inferior = "Contract.check: columns: curve holds an inferior solution" in
  Contract.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Contract.set_enabled false)
    (fun () ->
       Alcotest.check_raises "req ascending" (Invalid_argument unsorted)
         (fun () -> check [ 1.0; 2.0 ] [ 1.0; 2.0 ] [ 0.0; 0.0 ]);
       Alcotest.check_raises "equal req, load descending"
         (Invalid_argument unsorted)
         (fun () -> check [ 2.0; 2.0 ] [ 3.0; 1.0 ] [ 0.0; 1.0 ]);
       Alcotest.check_raises "equal req and load, area descending"
         (Invalid_argument unsorted)
         (fun () -> check [ 2.0; 2.0 ] [ 1.0; 1.0 ] [ 5.0; 1.0 ]);
       Alcotest.check_raises "repeated point" (Invalid_argument unsorted)
         (fun () -> check [ 2.0; 2.0 ] [ 1.0; 1.0 ] [ 1.0; 1.0 ]);
       Alcotest.check_raises "dominated by a non-adjacent point"
         (Invalid_argument inferior)
         (fun () ->
            check [ 9.0; 8.0; 7.0 ] [ 1.0; 0.5; 2.0 ] [ 1.0; 3.0; 1.0 ]);
       (* A curve the builder made passes. *)
       let c = of_list [ sol ~data:0 9.0 1.0 1.0; sol ~data:1 8.0 0.5 3.0 ] in
       Contract.check ~name:"columns" c.Curve.req c.Curve.load c.Curve.area;
       Alcotest.(check int) "a built curve passes" 2 (Curve.size c))

(* Regression for the batch cap: the four extreme points — best required
   time, least load, least area, and the last curve element — survive
   capping whenever the cap has room for them. *)
let test_cap_preserves_extremes () =
  let rand = Random.State.make [| 42 |] in
  for _trial = 1 to 50 do
    let bag =
      List.init 80 (fun i ->
          sol ~data:i
            (float_of_int (Random.State.int rand 40))
            (float_of_int (Random.State.int rand 40))
            (float_of_int (Random.State.int rand 40)))
    in
    let c = of_list bag in
    if Curve.size c > 6 then begin
      let capped = of_list ~max_size:6 bag in
      let full = Curve_reference.of_curve c
      and kept = Curve_reference.of_curve capped in
      let extreme proj =
        List.fold_left
          (fun acc s -> if proj s < proj acc then s else acc)
          (List.hd full) full
      in
      let mem s =
        List.exists
          (fun x ->
             x.Solution.req = s.Solution.req
             && x.Solution.load = s.Solution.load
             && x.Solution.area = s.Solution.area)
          kept
      in
      let last = List.nth full (List.length full - 1) in
      Alcotest.(check bool) "best req kept" true (mem (List.hd full));
      Alcotest.(check bool) "min load kept" true
        (mem (extreme (fun s -> s.Solution.load)));
      Alcotest.(check bool) "min area kept" true
        (mem (extreme (fun s -> s.Solution.area)));
      Alcotest.(check bool) "last point kept" true (mem last);
      Alcotest.(check bool) "within cap" true (Curve.size capped <= 6)
    end
  done

(* A fresh builder builds empty; a cleared one has forgotten its
   pushes, and the accessor reads a built curve in key order. *)
let test_builder_lifecycle () =
  let bld = Curve.Builder.create ~hint:2 () in
  Alcotest.(check int) "fresh build empty" 0
    (Curve.size (Curve.Builder.build bld));
  for i = 1 to 10 do
    Curve.Builder.push bld ~req:(float_of_int i) ~load:1.0 ~area:1.0 i
  done;
  let c = Curve.Builder.build bld in
  Alcotest.(check int) "frontier of ten" 1 (Curve.size c);
  Alcotest.(check int) "kept" 1 (Curve.Builder.kept bld);
  Alcotest.(check int) "get reads the survivor" 10 (Curve.get c 0).Solution.data;
  Alcotest.check_raises "get past the end"
    (Invalid_argument "index out of bounds") (fun () -> ignore (Curve.get c 1));
  Curve.Builder.clear bld;
  Alcotest.(check int) "empty build" 0 (Curve.size (Curve.Builder.build bld))

(* Under MERLIN_CHECK the batch results, capped or not, must satisfy
   the full array contracts too. *)
let test_batch_contracts () =
  Contract.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Contract.set_enabled false)
    (fun () ->
       let rand = Random.State.make [| 7 |] in
       for trial = 1 to 20 do
         let bld = Curve.Builder.create () in
         for i = 0 to 99 do
           Curve.Builder.push bld
             ~req:(float_of_int (Random.State.int rand 30))
             ~load:(float_of_int (Random.State.int rand 30))
             ~area:(float_of_int (Random.State.int rand 30))
             i
         done;
         let c = Curve.Builder.build ~max_size:(2 + (trial mod 6)) bld in
         Alcotest.(check bool) "contracted capped build is a frontier" true
           (Test_curves.non_inferior c);
         let c = Curve.Builder.build bld in
         Alcotest.(check bool) "contracted build is a frontier" true
           (Test_curves.non_inferior c)
       done)

let suite =
  ( "curve_kernel",
    [ Alcotest.test_case "cap preserves the four extreme points" `Quick
        test_cap_preserves_extremes;
      Alcotest.test_case "builder lifecycle" `Quick test_builder_lifecycle;
      Alcotest.test_case "batch results pass contracts" `Quick
        test_batch_contracts;
      Alcotest.test_case "contract on the columns fires on a non-curve" `Quick
        test_contract_on_columns ]
    @ equiv @ modes @ columnar )
