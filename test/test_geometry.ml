open Merlin_geometry

let point_gen =
  QCheck.Gen.(map2 Point.make (int_range (-500) 500) (int_range (-500) 500))

let arb_point = QCheck.make ~print:Point.to_string point_gen

let arb_points =
  QCheck.make
    ~print:(fun l -> String.concat ";" (List.map Point.to_string l))
    QCheck.Gen.(list_size (int_range 1 12) point_gen)

(* Up to a few hundred points: the box's allocation must not grow with
   the list. *)
let arb_long_points =
  QCheck.make
    ~print:(fun l -> String.concat ";" (List.map Point.to_string l))
    QCheck.Gen.(list_size (int_range 1 300) point_gen)

(* [Rect.bounding_box] is the componentwise min and max of the points,
   and allocates its result (the rectangle and its two corners, nine
   words) and nothing else, whatever the list's length.  Bytes are read
   with the counter the kernel's windows use, less the cost of a
   reading.  Native code only: the bytecode interpreter allocates on
   the way. *)
let prop_bounding_box pts =
  let xs = List.map (fun p -> p.Point.x) pts
  and ys = List.map (fun p -> p.Point.y) pts in
  let least = List.fold_left Int.min max_int
  and most = List.fold_left Int.max min_int in
  let bytes = Merlin_core.Star_ptree.allocated_bytes in
  let reading =
    let x = bytes () in
    let y = bytes () in
    y -. x
  in
  let before = bytes () in
  let box = Sys.opaque_identity (Rect.bounding_box pts) in
  let got = bytes () -. before -. reading in
  Point.equal box.Rect.lo (Point.make (least xs) (least ys))
  && Point.equal box.Rect.hi (Point.make (most xs) (most ys))
  &&
  match Sys.backend_type with
  | Sys.Native -> Float.equal got (float_of_int (9 * (Sys.word_size / 8)))
  | Sys.Bytecode | Sys.Other _ -> true

let qtest name ?(count = 200) arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb prop)

let test_manhattan_basics () =
  let a = Point.make 0 0 and b = Point.make 3 4 in
  Alcotest.(check int) "distance" 7 (Point.manhattan a b);
  Alcotest.(check int) "self" 0 (Point.manhattan a a)

let test_l_corner () =
  let a = Point.make 1 2 and b = Point.make 5 9 in
  let c = Point.l_corner a b in
  Alcotest.(check int) "corner breaks the route exactly"
    (Point.manhattan a b)
    (Point.manhattan a c + Point.manhattan c b)

let test_center_of_mass () =
  let pts = [ Point.make 0 0; Point.make 10 20; Point.make 20 10 ] in
  Alcotest.(check bool) "average" true
    (Point.equal (Point.center_of_mass pts) (Point.make 10 10));
  Alcotest.check_raises "empty" (Invalid_argument "Point.center_of_mass: empty list")
    (fun () -> ignore (Point.center_of_mass []))

let test_rect_contains () =
  let r = Rect.make (Point.make 4 9) (Point.make 1 2) in
  Alcotest.(check bool) "normalised lo" true (Point.equal r.Rect.lo (Point.make 1 2));
  Alcotest.(check bool) "inside" true (Rect.contains r (Point.make 2 5));
  Alcotest.(check bool) "outside" false (Rect.contains r (Point.make 0 5));
  Alcotest.(check int) "half perimeter" 10 (Rect.half_perimeter r)

let test_rect_inflate () =
  let r = Rect.make (Point.make 0 0) (Point.make 2 2) in
  let big = Rect.inflate r 3 in
  Alcotest.(check bool) "grown" true (Rect.contains big (Point.make (-3) (-3)));
  Alcotest.(check int) "dims" 8 (Rect.width big)

(* A 10 x 4 box has half perimeter 14: slack 0.25 grows it by
   1 + floor 3.5 = 4 on every side, slack 0 by the one unit alone. *)
let test_rect_inflate_by_slack () =
  let r = Rect.make (Point.make 0 0) (Point.make 10 4) in
  let wide = Rect.inflate_by_slack 0.25 r in
  Alcotest.(check bool) "margin 4" true
    (Point.equal wide.Rect.lo (Point.make (-4) (-4))
     && Point.equal wide.Rect.hi (Point.make 14 8));
  let tight = Rect.inflate_by_slack 0.0 r in
  Alcotest.(check bool) "margin 1" true
    (Point.equal tight.Rect.lo (Point.make (-1) (-1))
     && Point.equal tight.Rect.hi (Point.make 11 5))

let test_hanan_small () =
  let pts = [ Point.make 0 0; Point.make 2 3; Point.make 5 1 ] in
  let grid = Hanan.full_grid pts in
  Alcotest.(check int) "3x3 grid" 9 (List.length grid);
  List.iter
    (fun p ->
       Alcotest.(check bool)
         (Printf.sprintf "terminal %s kept" (Point.to_string p))
         true
         (List.exists (Point.equal p) grid))
    pts

let test_hanan_reduced_keeps_terminals () =
  let pts =
    List.init 10 (fun i -> Point.make (i * 17 mod 97) (i * 31 mod 83))
  in
  let reduced = Hanan.reduced pts ~limit:15 in
  Alcotest.(check bool) "within limit" true (List.length reduced <= 15);
  List.iter
    (fun p ->
       Alcotest.(check bool) "terminal kept" true
         (List.exists (Point.equal p) reduced))
    pts

let props =
  [ qtest "manhattan symmetric" (QCheck.pair arb_point arb_point)
      (fun (a, b) -> Point.manhattan a b = Point.manhattan b a);
    qtest "manhattan triangle"
      (QCheck.triple arb_point arb_point arb_point)
      (fun (a, b, c) ->
         Point.manhattan a c <= Point.manhattan a b + Point.manhattan b c);
    qtest "bounding box contains all" arb_points (fun pts ->
        let box = Rect.bounding_box pts in
        List.for_all (Rect.contains box) pts);
    qtest "center of mass inside box" arb_points (fun pts ->
        let box = Rect.bounding_box pts in
        Rect.contains box (Point.center_of_mass pts));
    qtest "bounding box = componentwise extremes, allocating only itself"
      arb_long_points prop_bounding_box;
    qtest "hanan grid size" arb_points (fun pts ->
        let xs = List.sort_uniq Int.compare (List.map (fun p -> p.Point.x) pts) in
        let ys = List.sort_uniq Int.compare (List.map (fun p -> p.Point.y) pts) in
        List.length (Hanan.full_grid pts) = List.length xs * List.length ys);
    qtest "hanan contains terminals" arb_points (fun pts ->
        let grid = Hanan.full_grid pts in
        List.for_all (fun p -> List.exists (Point.equal p) grid) pts);
    qtest "com set bounded" arb_points (fun pts ->
        List.length (Hanan.center_of_mass_set pts ~limit:20) <= 20);
    qtest "reduced bounded" arb_points (fun pts ->
        List.length (Hanan.reduced pts ~limit:7) <= 7) ]

let suite =
  ( "geometry",
    [ Alcotest.test_case "manhattan basics" `Quick test_manhattan_basics;
      Alcotest.test_case "l corner on route" `Quick test_l_corner;
      Alcotest.test_case "center of mass" `Quick test_center_of_mass;
      Alcotest.test_case "rect contains" `Quick test_rect_contains;
      Alcotest.test_case "rect inflate" `Quick test_rect_inflate;
      Alcotest.test_case "rect inflate by slack" `Quick test_rect_inflate_by_slack;
      Alcotest.test_case "hanan 3x3" `Quick test_hanan_small;
      Alcotest.test_case "hanan reduced" `Quick test_hanan_reduced_keeps_terminals ]
    @ props )
