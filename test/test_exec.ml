(* Execution-engine tests: deterministic map, exception propagation,
   timeouts, nested-submit deadlock freedom, and the end-to-end claim
   that a parallel Flow_runner.run matches the sequential one. *)

open Merlin_tech
module Pool = Merlin_exec.Pool
module Clock = Merlin_exec.Clock
module FR = Merlin_circuit.Flow_runner

let tech = Tech.default
let buffers = Buffer_lib.default

let qtest ?(count = 50) name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb prop)

(* ---- Pool.map determinism (the qcheck property) ---- *)

(* Pool sizes the issue calls out, plus the inline-at-await edge case. *)
let pool_sizes = [ 0; 1; 2; 8 ]

let arb_map_case =
  QCheck.make
    ~print:(fun (xs, chunk) ->
      Printf.sprintf "[%s] chunk=%d"
        (String.concat ";" (List.map string_of_int xs))
        chunk)
    QCheck.Gen.(
      pair (list_size (int_range 0 200) (int_range (-1000) 1000)) (int_range 1 37))

let test_map_matches_list_map =
  qtest "Pool.map f xs = List.map f xs (sizes 0/1/2/8)" arb_map_case
    (fun (xs, chunk) ->
      let f x = (x * 31) + (x mod 7) in
      let expect = List.map f xs in
      List.for_all
        (fun domains ->
          Pool.with_pool ~domains (fun pool ->
              List.equal Int.equal (Pool.map ~chunk pool f xs) expect))
        pool_sizes)

let test_map_preserves_order () =
  (* Tasks with deliberately inverted runtimes: the first elements take
     longest, so any completion-order bug would reorder the output. *)
  Pool.with_pool ~domains:4 (fun pool ->
      let n = 24 in
      let xs = List.init n (fun i -> i) in
      let f i =
        let until = Clock.monotonic_s () +. (0.002 *. float_of_int (n - i)) in
        while Clock.monotonic_s () < until do
          ignore (Sys.opaque_identity i)
        done;
        i * 2
      in
      Alcotest.(check (list int)) "order kept" (List.map (fun i -> i * 2) xs)
        (Pool.map ~chunk:1 pool f xs))

(* ---- exception propagation ---- *)

exception Boom of int

let test_exception_propagates () =
  Pool.with_pool ~domains:2 (fun pool ->
      let fu = Pool.submit pool (fun () -> raise (Boom 42)) (* check: exn-flow *) in
      (match Pool.await fu with
       | _ -> Alcotest.fail "await should re-raise"
       | exception Boom 42 -> ());
      (* The pool must survive a failed task. *)
      Alcotest.(check int) "pool still works" 7
        (Pool.await (Pool.submit pool (fun () -> 7)));
      let s = Pool.stats pool in
      Alcotest.(check int) "failed counted" 1 s.Pool.failed)

let test_map_first_exception () =
  Pool.with_pool ~domains:2 (fun pool ->
      match Pool.map ~chunk:1 pool (fun x -> if x = 3 then raise (Boom x) else x) (* check: exn-flow *)
              [ 1; 2; 3; 4 ] with
      | _ -> Alcotest.fail "map should re-raise"
      | exception Boom 3 -> ())

(* ---- timeouts ---- *)

let test_timeout () =
  Pool.with_pool ~domains:1 (fun pool ->
      (* One long task occupies the single worker; the second task then
         sits in the queue past its deadline and must come back
         Timed_out without ever running. *)
      let slow =
        Pool.submit pool (fun () ->
            (* Deliberate wall-time busy-wait: this task exists to hog
               the single worker, not to produce a value. *)
            let until = Clock.monotonic_s () +. 0.3 in (* check: nondet-ok *)
            while Clock.monotonic_s () < until do
              ignore (Sys.opaque_identity 0)
            done;
            "slow")
      in
      let quick = Pool.submit pool (fun () -> "quick") in
      (match Pool.await_timeout ~timeout_s:0.02 quick with
       | Pool.Timed_out -> ()
       | Pool.Done v -> Alcotest.failf "expected Timed_out, got Done %s" v
       | Pool.Failed e -> raise e);
      Alcotest.(check string) "slow task unaffected" "slow" (Pool.await slow);
      let s = Pool.stats pool in
      Alcotest.(check int) "timed_out counted" 1 s.Pool.timed_out)

let test_timeout_done () =
  Pool.with_pool ~domains:2 (fun pool ->
      match Pool.run_timeout ~timeout_s:5.0 pool (fun () -> 99) with
      | Pool.Done v -> Alcotest.(check int) "value" 99 v
      | Pool.Timed_out -> Alcotest.fail "generous deadline expired"
      | Pool.Failed e -> raise e)

let test_cancel () =
  Pool.with_pool ~domains:1 (fun pool ->
      let slow =
        Pool.submit pool (fun () ->
            (* Deliberate wall-time busy-wait, as above. *)
            let until = Clock.monotonic_s () +. 0.1 in (* check: nondet-ok *)
            while Clock.monotonic_s () < until do
              ignore (Sys.opaque_identity 0)
            done)
      in
      let queued = Pool.submit pool (fun () -> Alcotest.fail "must not run") in
      Alcotest.(check bool) "queued task cancels" true (Pool.cancel queued);
      (match Pool.await queued with
       | () -> Alcotest.fail "await of cancelled task should raise"
       | exception Pool.Task_cancelled -> ());
      Pool.await slow;
      Alcotest.(check bool) "settled task does not cancel" false
        (Pool.cancel slow))

(* ---- nested submit: awaiting inside a task must not deadlock ---- *)

let test_nested_submit () =
  (* Every task on the 1-domain pool submits and awaits a child task.
     Without helping-await the single worker would block forever on the
     first child.  Guard with a wall-clock alarm so a regression fails
     the test instead of hanging the suite. *)
  Pool.with_pool ~domains:1 (fun pool ->
      let t0 = Clock.monotonic_s () in
      let outer =
        Pool.map ~chunk:1 pool
          (fun i -> i + Pool.await (Pool.submit pool (fun () -> i * 10)))
          [ 1; 2; 3; 4 ]
      in
      Alcotest.(check (list int)) "nested results" [ 11; 22; 33; 44 ] outer;
      Alcotest.(check bool) "finished promptly (no deadlock)" true
        (Clock.elapsed_s t0 < 10.0))

(* ---- telemetry sanity ---- *)

let test_stats () =
  Pool.with_pool ~domains:2 (fun pool ->
      ignore (Pool.map pool (fun x -> x) (List.init 20 (fun i -> i)));
      let s = Pool.stats pool in
      Alcotest.(check int) "domains" 2 s.Pool.domains;
      Alcotest.(check bool) "submitted > 0" true (s.Pool.submitted > 0);
      Alcotest.(check int) "all completed" s.Pool.submitted s.Pool.completed;
      Alcotest.(check int) "per-domain rows" 3 (Array.length s.Pool.per_domain);
      let hist_total = Array.fold_left ( + ) 0 s.Pool.run_hist in
      Alcotest.(check int) "run hist covers completions" s.Pool.completed
        hist_total)

(* ---- end to end: parallel Flow_runner equals sequential ---- *)

let test_flow_runner_parallel_matches_sequential () =
  let netlist =
    Merlin_circuit.Placement.place
      (Merlin_circuit.Circuit_gen.generate ~scale_down:300 ~name:"B9" ())
  in
  List.iter
    (fun flow ->
      let seq = FR.run ~tech ~buffers ~flow netlist in
      let par = FR.run ~tech ~buffers ~flow ~jobs:4 netlist in
      let name = FR.flow_name flow in
      Alcotest.(check (float 0.0)) (name ^ " area") seq.FR.area par.FR.area;
      Alcotest.(check (float 0.0)) (name ^ " delay") seq.FR.delay par.FR.delay;
      Alcotest.(check int) (name ^ " buffers") seq.FR.n_buffers par.FR.n_buffers;
      Alcotest.(check int) (name ^ " wirelength") seq.FR.wirelength
        par.FR.wirelength;
      Alcotest.(check int) (name ^ " nets") seq.FR.nets_optimized
        par.FR.nets_optimized;
      Alcotest.(check int) (name ^ " timeouts") 0 par.FR.nets_timed_out)
    [ FR.Flow1; FR.Flow2; FR.Flow3 ]

(* ---- clock ---- *)

let test_clock_monotonic () =
  let t0 = Clock.monotonic_s () in
  let t1 = Clock.monotonic_s () in
  Alcotest.(check bool) "non-decreasing" true (t1 >= t0);
  let (v, dt) = Clock.timed (fun () -> 5) in
  Alcotest.(check int) "timed value" 5 v;
  Alcotest.(check bool) "timed non-negative" true (dt >= 0.0)

let suite =
  ( "exec",
    [ test_map_matches_list_map;
      Alcotest.test_case "map preserves order" `Quick test_map_preserves_order;
      Alcotest.test_case "exception propagates" `Quick test_exception_propagates;
      Alcotest.test_case "map re-raises first exn" `Quick test_map_first_exception;
      Alcotest.test_case "timeout -> Timed_out" `Quick test_timeout;
      Alcotest.test_case "timeout -> Done" `Quick test_timeout_done;
      Alcotest.test_case "cancel queued task" `Quick test_cancel;
      Alcotest.test_case "nested submit no deadlock" `Quick test_nested_submit;
      Alcotest.test_case "stats sanity" `Quick test_stats;
      Alcotest.test_case "clock monotonic" `Quick test_clock_monotonic;
      Alcotest.test_case "flow_runner jobs:4 = sequential" `Slow
        test_flow_runner_parallel_matches_sequential ] )
