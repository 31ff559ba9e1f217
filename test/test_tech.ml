open Merlin_tech

let qtest name ?(count = 100) arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb prop)

let test_wire_monotone () =
  let t = Tech.default in
  let d1 = Tech.wire_elmore t ~len:100 ~load:10.0 in
  let d2 = Tech.wire_elmore t ~len:200 ~load:10.0 in
  let d3 = Tech.wire_elmore t ~len:200 ~load:20.0 in
  Alcotest.(check bool) "longer is slower" true (d2 > d1);
  Alcotest.(check bool) "heavier is slower" true (d3 > d2);
  Alcotest.(check (float 1e-9)) "zero wire" 0.0 (Tech.wire_elmore t ~len:0 ~load:10.0)

let test_wire_quadratic () =
  (* Unloaded wire delay grows quadratically with length. *)
  let t = Tech.default in
  let d len = Tech.wire_elmore t ~len ~load:0.0 in
  Alcotest.(check (float 1e-6)) "4x for 2x length" (4.0 *. d 100) (d 200)

let test_delay_model () =
  let m = Delay_model.make ~d0:50.0 ~r_drive:1000.0 ~k_slew:0.0 ~s0:20.0 in
  Alcotest.(check (float 1e-9)) "linear in load" 50.1
    (Delay_model.delay m ~load:0.1);
  let d, slew = Delay_model.delay_slew m ~load:100.0 ~slew_in:0.0 in
  Alcotest.(check (float 1e-9)) "delay" 150.0 d;
  Alcotest.(check bool) "slew grows with load" true (slew > 20.0)

let test_library_shape () =
  let lib = Buffer_lib.default in
  Alcotest.(check int) "34 buffers as in the paper" 34 (Array.length lib);
  let weakest = Buffer_lib.weakest lib and strongest = Buffer_lib.strongest lib in
  Alcotest.(check bool) "weakest has least input cap" true
    (Array.for_all (fun b -> weakest.Buffer_lib.input_cap <= b.Buffer_lib.input_cap) lib);
  Alcotest.(check bool) "strongest drives best" true
    (Array.for_all
       (fun b ->
          strongest.Buffer_lib.model.Delay_model.r_drive
          <= b.Buffer_lib.model.Delay_model.r_drive)
       lib);
  Alcotest.(check bool) "strength costs area" true
    (strongest.Buffer_lib.area > weakest.Buffer_lib.area)

let test_library_monotone () =
  let lib = Buffer_lib.default in
  for i = 0 to Array.length lib - 2 do
    Alcotest.(check bool) "drive resistance decreasing" true
      (lib.(i + 1).Buffer_lib.model.Delay_model.r_drive
       <= lib.(i).Buffer_lib.model.Delay_model.r_drive);
    Alcotest.(check bool) "area increasing" true
      (lib.(i + 1).Buffer_lib.area >= lib.(i).Buffer_lib.area)
  done

let test_synthetic_sizes () =
  Alcotest.(check int) "n=1" 1 (Array.length (Buffer_lib.synthetic ~n:1));
  Alcotest.(check int) "n=7" 7 (Array.length (Buffer_lib.synthetic ~n:7));
  Alcotest.check_raises "n=0 rejected"
    (Invalid_argument "Buffer_lib.synthetic: n < 1") (fun () ->
        ignore (Buffer_lib.synthetic ~n:0))

let props =
  [ qtest "wire cap linear" QCheck.(int_range 0 10000) (fun len ->
        let t = Tech.default in
        abs_float (Tech.wire_cap t (2 * len) -. (2.0 *. Tech.wire_cap t len))
        < 1e-9);
    qtest "buffer delay monotone in load"
      QCheck.(pair (int_range 0 33) (pair (float_range 0.0 100.0) (float_range 0.0 100.0)))
      (fun (i, (l1, l2)) ->
         let b = Buffer_lib.default.(i) in
         let lo = min l1 l2 and hi = max l1 l2 in
         Buffer_lib.delay b ~load:lo <= Buffer_lib.delay b ~load:hi);
    (* [delay] computes the nominal-slew delay directly; it must stay
       bit-identical to the full evaluation it replaced. *)
    qtest "delay = fst delay_slew at nominal slew, bitwise"
      QCheck.(float_range 0.0 10000.0)
      (fun load ->
         Array.for_all
           (fun b ->
              let m = b.Buffer_lib.model in
              Int64.equal
                (Int64.bits_of_float (Delay_model.delay m ~load))
                (Int64.bits_of_float
                   (fst (Delay_model.delay_slew m ~load ~slew_in:40.0))))
           Buffer_lib.default) ]

let suite =
  ( "tech",
    [ Alcotest.test_case "wire monotone" `Quick test_wire_monotone;
      Alcotest.test_case "wire quadratic" `Quick test_wire_quadratic;
      Alcotest.test_case "delay model" `Quick test_delay_model;
      Alcotest.test_case "library shape" `Quick test_library_shape;
      Alcotest.test_case "library monotone" `Quick test_library_monotone;
      Alcotest.test_case "synthetic sizes" `Quick test_synthetic_sizes ]
    @ props )
