(* Checks of the benchmark's own helpers: percentiles and their sample
   rule, the open-loop schedule and lateness, the result line read
   back, and span self time. *)

open Perfbench_kit

let failures = ref 0

let expect what ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" what
  end

let near a b = Float.abs (a -. b) < 1e-9

let range n = List.init n (fun i -> float_of_int (i + 1))

let () =
  (* Medians and nearest-rank percentiles. *)
  expect "median odd" (Stats.median [ 3.0; 1.0; 2.0 ] = 2.0);
  expect "median even" (Stats.median [ 4.0; 1.0; 3.0; 2.0 ] = 2.5);
  expect "p50 of 1..100" (Stats.percentile ~p:0.5 (range 100) = 50.0);
  expect "p99 of 1..100" (Stats.percentile ~p:0.99 (range 100) = 99.0);
  expect "p100 is the max" (Stats.percentile ~p:1.0 (range 7) = 7.0);
  expect "p99 of one sample" (Stats.percentile ~p:0.99 [ 5.0 ] = 5.0);
  expect "gmean" (near (Stats.gmean [ 1.0; 100.0 ]) 10.0);
  expect "gmean of one sample" (near (Stats.gmean [ 3.0 ]) 3.0);
  expect "gmean rejects zero"
    (match Stats.gmean [ 1.0; 0.0 ] with _ -> false | exception Invalid_argument _ -> true);
  expect "empty median raises"
    (match Stats.median [] with _ -> false | exception Invalid_argument _ -> true);
  (* A p99 needs ten samples beyond it. *)
  let t = Stats.tail (range 1000) in
  expect "tail counts samples" (t.Stats.samples = 1000);
  expect "1000 samples: 10 beyond the p99" (Stats.beyond ~p:0.99 1000 = 10);
  expect "1000 samples give a p99" (t.Stats.p99 = Some 990.0);
  expect "999 samples give no p99" ((Stats.tail (range 999)).Stats.p99 = None);
  expect "100 samples give no p99" ((Stats.tail (range 100)).Stats.p99 = None);
  expect "tail p50" (t.Stats.p50 = 500.0);
  (* Open-loop due times ignore replies; lateness is never negative. *)
  let s = List.init 5 (Stats.due ~start:10.0 ~rate:4.0) in
  expect "schedule" (List.for_all2 near s [ 10.0; 10.25; 10.5; 10.75; 11.0 ]);
  expect "due" (near (Stats.due ~start:1.0 ~rate:150.0 150) 2.0);
  expect "late" (near (Stats.lateness ~due:2.0 ~sent:2.5) 0.5);
  expect "early is not late" (Stats.lateness ~due:2.0 ~sent:1.9 = 0.0);
  (* The result line reads back to itself, full precision kept. *)
  let r =
    { Stats.correct = true;
      attempted = 12;
      failed = 0;
      metrics =
        [ { Stats.name = "flow1_s"; value = 1.2034567890123; unit_ = "s" };
          { Stats.name = "cold_nets_per_s"; value = 64.125; unit_ = "1/s" } ] }
  in
  let line = Stats.result_line r in
  expect "result reads back" (Stats.result_of_line line = Ok r);
  expect "single line" (not (String.contains line '\n'));
  let bad =
    [ "not json";
      {|{"correct":true,"attempted":1,"failed":0}|};
      {|{"correct":true,"attempted":0,"failed":0,"metrics":{}}|};
      {|{"correct":true,"attempted":1.5,"failed":0,"metrics":{}}|};
      {|{"correct":true,"attempted":1,"failed":0,"metrics":{},"extra":1}|};
      {|{"correct":true,"attempted":1,"failed":0,"metrics":{"x":{"value":1}}}|} ]
  in
  List.iter (fun l -> expect ("rejects " ^ l) (Result.is_error (Stats.result_of_line l))) bad;
  (* Self time is a span minus its children. *)
  let tr = Trace.create () in
  let root = Trace.record tr ~req:0 ~start:0.0 ~stop:10.0 "flow" in
  ignore (Trace.record tr ~parent:root ~req:0 ~start:1.0 ~stop:4.0 "a");
  ignore (Trace.record tr ~parent:root ~req:0 ~start:5.0 ~stop:7.0 "b");
  expect "self time" (near (Trace.self_total tr "flow") 5.0);
  expect "total" (near (Trace.total tr "a") 3.0);
  let nested = Trace.span tr ~req:3 "outer" (fun () -> Trace.span tr "inner" (fun () -> 42)) in
  expect "span returns" (nested = 42);
  (match Trace.named tr "inner", Trace.named tr "outer" with
   | [ i ], [ o ] ->
     expect "inner's parent is outer" (i.Trace.parent = o.Trace.id);
     expect "inner inherits the request" (i.Trace.req = 3)
   | _ -> expect "spans recorded" false);
  if !failures > 0 then exit 1;
  print_endline "perfbench helpers: ok"
