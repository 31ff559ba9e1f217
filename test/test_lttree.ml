open Merlin_geometry
open Merlin_tech
open Merlin_net
open Merlin_curves
module Lttree = Merlin_lttree.Lttree

let tech = Tech.default
let buffers = Buffer_lib.default

let mk_sinks n seed =
  let net = Net_gen.random_net ~seed ~name:"lt" ~n tech in
  Array.to_list net.Net.sinks

let sink_ids sinks =
  List.sort Int.compare (List.map (fun s -> s.Sink.id) sinks)

(* A plan as one (buffer name, direct sink ids) pair per level, the root
   first with buffer "driver": structural plan equality without
   polymorphic compare. *)
let plan_shape (p : Lttree.plan) =
  let ids ss = List.map (fun s -> s.Sink.id) ss in
  let rec links = function
    | None -> []
    | Some (c : Lttree.chain) ->
      (c.Lttree.buffer.Buffer_lib.name, ids c.Lttree.directs) :: links c.Lttree.chain
  in
  ("driver", ids p.Lttree.root_directs) :: links p.Lttree.root_chain

let same_shape a b =
  List.equal
    (fun (na, ia) (nb, ib) -> String.equal na nb && List.equal Int.equal ia ib)
    (plan_shape a) (plan_shape b)

let bits_equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Reference: the unbounded LT-Tree-I DP — every cell's full
   (req, load, area) curve, the root curve, then the best point after the
   driver's gate — as [Lttree.best] computed it before it was bounded by
   the answer.  It pins the plan the tie-break must pick. *)
let unbounded_best ~buffers ~max_fanout ~driver sinks =
  let arr =
    Array.of_list
      (List.sort (fun a b -> Float.compare a.Sink.req b.Sink.req) sinks)
  in
  let n = Array.length arr in
  let group i j = Array.to_list (Array.sub arr i (j - i + 1)) in
  let group_load i j =
    let total = ref 0.0 in
    for t = i to j do total := !total +. arr.(t).Sink.cap done;
    !total
  in
  let memo = Array.make (n + 1) Curve.empty in
  let bld = Curve.Builder.create () in
  for i = n - 1 downto 1 do
    Curve.Builder.clear bld;
    let try_group j =
      let directs = group i j in
      let d_load = group_load i j and d_req = arr.(i).Sink.req in
      let close ~req ~load ~area ~link_chain =
        Array.iter
          (fun b ->
             Curve.Builder.push bld
               ~req:(req -. Buffer_lib.delay b ~load)
               ~load:b.Buffer_lib.input_cap ~area:(area +. b.Buffer_lib.area)
               { Lttree.buffer = b; directs; chain = link_chain })
          buffers
      in
      if j = n - 1 then close ~req:d_req ~load:d_load ~area:0.0 ~link_chain:None
      else
        Curve.iter
          (fun (next : Lttree.chain Solution.t) ->
             close ~req:(min d_req next.Solution.req)
               ~load:(d_load +. next.Solution.load) ~area:next.Solution.area
               ~link_chain:(Some next.Solution.data))
          memo.(j + 1)
    in
    for j = i to min (n - 1) (i + max_fanout - 1) do
      if j - i + 1 + (if j = n - 1 then 0 else 1) <= max_fanout then try_group j
    done;
    memo.(i) <- Curve.Builder.build bld
  done;
  let out = Curve.Builder.create () in
  for j = 0 to n - 1 do
    if j + 1 + (if j = n - 1 then 0 else 1) <= max_fanout then begin
      let directs = group 0 j in
      let d_load = group_load 0 j and d_req = arr.(0).Sink.req in
      if j = n - 1 then
        Curve.Builder.push out ~req:d_req ~load:d_load ~area:0.0
          { Lttree.root_directs = directs; root_chain = None }
      else
        Curve.iter
          (fun (next : Lttree.chain Solution.t) ->
             Curve.Builder.push out ~req:(min d_req next.Solution.req)
               ~load:(d_load +. next.Solution.load) ~area:next.Solution.area
               { Lttree.root_directs = directs; root_chain = Some next.Solution.data })
          memo.(j + 1)
    end
  done;
  let to_driver = Curve.Builder.create () in
  Curve.iter
    (fun s ->
       Curve.Builder.push to_driver
         ~req:(s.Solution.req -. Delay_model.delay driver ~load:s.Solution.load)
         ~load:s.Solution.load ~area:s.Solution.area s.Solution.data)
    (Curve.Builder.build out);
  Option.get (Curve.best_req (Curve.Builder.build to_driver))

(* Brute force: every LT-Tree-I plan's (req after the gate, load, area),
   each evaluated with the DP's own float operations (suffix reqs and
   areas accumulated from the tail up). *)
let enumerate ~buffers ~max_fanout ~driver sinks =
  let arr =
    Array.of_list
      (List.sort (fun a b -> Float.compare a.Sink.req b.Sink.req) sinks)
  in
  let n = Array.length arr in
  let group_load i j =
    let total = ref 0.0 in
    for t = i to j do total := !total +. arr.(t).Sink.cap done;
    !total
  in
  (* Every (req, load, area) a chain link at suffix i can present. *)
  let rec links i =
    List.concat_map
      (fun j ->
         if j - i + 1 + (if j = n - 1 then 0 else 1) > max_fanout then []
         else begin
           let d_load = group_load i j and d_req = arr.(i).Sink.req in
           let nexts =
             if j = n - 1 then [ (d_req, d_load, 0.0) ]
             else
               List.map
                 (fun (r, l, a) -> (min d_req r, d_load +. l, a))
                 (links (j + 1))
           in
           List.concat_map
             (fun (req, load, area) ->
                List.map
                  (fun b ->
                     ( req -. Buffer_lib.delay b ~load,
                       b.Buffer_lib.input_cap,
                       area +. b.Buffer_lib.area ))
                  (Array.to_list buffers))
             nexts
         end)
      (List.init (min n (i + max_fanout) - i) (fun t -> i + t))
  in
  List.concat_map
    (fun j ->
       if j + 1 + (if j = n - 1 then 0 else 1) > max_fanout then []
       else begin
         let d_load = group_load 0 j and d_req = arr.(0).Sink.req in
         let roots =
           if j = n - 1 then [ (d_req, d_load, 0.0) ]
           else
             List.map
               (fun (r, l, a) -> (min d_req r, d_load +. l, a))
               (links (j + 1))
         in
         List.map
           (fun (req, load, area) ->
              (req -. Delay_model.delay driver ~load, load, area))
           roots
       end)
    (List.init n Fun.id)

(* The enumerator's best: max req after the gate, then min load, then
   min area. *)
let enumerated_best ~buffers ~max_fanout ~driver sinks =
  match enumerate ~buffers ~max_fanout ~driver sinks with
  | [] -> assert false
  | first :: rest ->
    List.fold_left
      (fun ((bv, bl, ba) as b) ((v, l, a) as c) ->
         if v > bv || (v = bv && (l < bl || (l = bl && a < ba))) then c else b)
      first rest

let rec chain_fanout_ok ~max_fanout (c : Lttree.chain) =
  List.length c.Lttree.directs
  + (match c.Lttree.chain with None -> 0 | Some _ -> 1)
  <= max_fanout
  && (match c.Lttree.chain with
      | None -> true
      | Some sub -> chain_fanout_ok ~max_fanout sub)

let plan_fanout_ok ~max_fanout (p : Lttree.plan) =
  List.length p.Lttree.root_directs
  + (match p.Lttree.root_chain with None -> 0 | Some _ -> 1)
  <= max_fanout
  && (match p.Lttree.root_chain with
      | None -> true
      | Some c -> chain_fanout_ok ~max_fanout c)

let test_plan_covers_all () =
  List.iter
    (fun n ->
       let sinks = mk_sinks n 5 in
       let best = Lttree.best ~buffers ~max_fanout:4 ~driver:Net.default_driver sinks in
       Alcotest.(check (list int)) "all sinks exactly once" (sink_ids sinks)
         (sink_ids (Lttree.plan_sinks best.Solution.data)))
    [ 1; 2; 5; 9; 14 ]

let test_single_sink () =
  let sinks = mk_sinks 1 3 in
  let best = Lttree.best ~buffers ~max_fanout:4 ~driver:Net.default_driver sinks in
  Alcotest.(check int) "one level" 1 (Lttree.n_levels best.Solution.data);
  Alcotest.(check (float 1e-9)) "no buffer area" 0.0
    (Lttree.plan_area best.Solution.data)

let test_matches_unbounded () =
  List.iter
    (fun (n, seed, max_fanout) ->
       let sinks = mk_sinks n seed in
       let driver = Net.default_driver in
       let got = Lttree.best ~buffers ~max_fanout ~driver sinks in
       let want = unbounded_best ~buffers ~max_fanout ~driver sinks in
       Alcotest.(check bool) "req, load, area bitwise" true
         (bits_equal got.Solution.req want.Solution.req
          && bits_equal got.Solution.load want.Solution.load
          && bits_equal got.Solution.area want.Solution.area);
       Alcotest.(check bool) "same plan" true
         (same_shape got.Solution.data want.Solution.data))
    [ (8, 11, 5); (10, 3, 10); (12, 7, 3); (9, 1, 2) ]

let test_respects_max_fanout () =
  List.iter
    (fun max_fanout ->
       let sinks = mk_sinks 13 7 in
       let best = Lttree.best ~buffers ~max_fanout ~driver:Net.default_driver sinks in
       Alcotest.(check bool) "every level within max_fanout" true
         (plan_fanout_ok ~max_fanout best.Solution.data))
    [ 2; 3; 5 ]

let test_area_matches_buffers () =
  List.iter
    (fun (n, seed) ->
       let sinks = mk_sinks n seed in
       let best = Lttree.best ~buffers ~max_fanout:4 ~driver:Net.default_driver sinks in
       Alcotest.(check (float 1e-6)) "solution area = plan area"
         best.Solution.area
         (Lttree.plan_area best.Solution.data))
    [ (9, 13); (14, 2); (6, 4) ]

let test_buffering_helps_under_load () =
  (* With many heavy sinks, a chain must beat driving everything flat. *)
  let sinks =
    List.init 12 (fun id ->
        Sink.make ~id ~pt:(Point.make id id) ~cap:40.0
          ~req:(1000.0 +. (50.0 *. float_of_int id)))
  in
  let weak_driver = Delay_model.make ~d0:50.0 ~r_drive:9000.0 ~k_slew:0.1 ~s0:30.0 in
  let best = Lttree.best ~buffers ~max_fanout:13 ~driver:weak_driver sinks in
  Alcotest.(check bool) "uses at least one buffer" true
    (Lttree.plan_area best.Solution.data > 0.0);
  (* Flat star required time for comparison. *)
  let total = List.fold_left (fun a s -> a +. s.Sink.cap) 0.0 sinks in
  let flat = 1000.0 -. Delay_model.delay weak_driver ~load:total in
  Alcotest.(check bool) "beats the flat star" true (best.Solution.req > flat)

let test_rejects_bad_args () =
  let driver = Net.default_driver in
  Alcotest.check_raises "no sinks" (Invalid_argument "Lttree.best: no sinks")
    (fun () -> ignore (Lttree.best ~buffers ~max_fanout:4 ~driver []));
  Alcotest.check_raises "fanout 1" (Invalid_argument "Lttree.best: max_fanout < 2")
    (fun () ->
       ignore (Lttree.best ~buffers ~max_fanout:1 ~driver (mk_sinks 2 1)))

let qtest name ?(count = 30) arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb prop)

(* n, net seed, max_fanout and a random 3-5 buffer subset of the default
   library in random order (the order is the DP's push order). *)
let oracle_case =
  let open QCheck.Gen in
  let gen =
    let* n = int_range 1 6 in
    let* seed = int_range 0 10_000 in
    let* max_fanout = int_range 2 4 in
    let* k = int_range 3 5 in
    let* order = shuffle_l (List.init (Array.length buffers) Fun.id) in
    return (n, seed, max_fanout, List.filteri (fun i _ -> i < k) order)
  in
  QCheck.make
    ~print:(fun (n, seed, mf, bs) ->
        Printf.sprintf "n=%d seed=%d max_fanout=%d buffers=[%s]" n seed mf
          (String.concat ";" (List.map string_of_int bs)))
    gen

let props =
  [ qtest "plans always cover the sinks"
      QCheck.(triple (int_range 1 12) (int_range 0 500) (int_range 2 6))
      (fun (n, seed, max_fanout) ->
         let sinks = mk_sinks n seed in
         let best = Lttree.best ~buffers ~max_fanout ~driver:Net.default_driver sinks in
         List.equal Int.equal
           (sink_ids (Lttree.plan_sinks best.Solution.data))
           (sink_ids sinks));
    qtest "wider fanout never hurts"
      QCheck.(int_range 0 200)
      (fun seed ->
         let sinks = mk_sinks 8 seed in
         let best mf =
           (Lttree.best ~buffers ~max_fanout:mf ~driver:Net.default_driver sinks)
             .Solution.req
         in
         best 9 >= best 3 -. 1e-9);
    qtest "best = brute force and unbounded DP" ~count:300 oracle_case
      (fun (n, seed, max_fanout, subset) ->
         let buffers = Array.of_list (List.map (Array.get buffers) subset) in
         let sinks = mk_sinks n seed and driver = Net.default_driver in
         let got = Lttree.best ~buffers ~max_fanout ~driver sinks in
         let v, l, a = enumerated_best ~buffers ~max_fanout ~driver sinks in
         let want = unbounded_best ~buffers ~max_fanout ~driver sinks in
         bits_equal got.Solution.req v
         && bits_equal got.Solution.load l
         && bits_equal got.Solution.area a
         && same_shape got.Solution.data want.Solution.data) ]

let suite =
  ( "lttree",
    [ Alcotest.test_case "plan covers all" `Quick test_plan_covers_all;
      Alcotest.test_case "single sink" `Quick test_single_sink;
      Alcotest.test_case "best = unbounded DP" `Quick test_matches_unbounded;
      Alcotest.test_case "max fanout respected" `Quick test_respects_max_fanout;
      Alcotest.test_case "area accounting" `Quick test_area_matches_buffers;
      Alcotest.test_case "buffering helps" `Quick test_buffering_helps_under_load;
      Alcotest.test_case "bad args" `Quick test_rejects_bad_args ]
    @ props )
