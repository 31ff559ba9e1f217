(* Microbenchmark for the batch Pareto-frontier kernel.

     dune exec bench/curve_bench.exe -- [--smoke] [--json FILE]

   Two workloads, both seeded and deterministic:

   - add-vs-builder: P = 8*S candidates whose frontier is exactly S
     (a spine of S pairwise-incomparable points plus dominated noise),
     inserted one by one with the list reference (Curve_reference.add)
     and in one batch (Curve.Builder.push + build).  S in {16, 64,
     256}.

   - join-product: the F x F join of two frontiers of size F, the inner
     loop shape of Star_ptree / Van_ginneken, incremental reference
     versus one batch build.

   Results go to stdout as a table and optionally to a JSON file; the
   before/after summary lives in BENCH_curve.json at the repo root. *)

open Merlin_curves

let smoke = Array.exists (( = ) "--smoke") Sys.argv

let json_path =
  let rec find i =
    if i >= Array.length Sys.argv - 1 then None
    else if Sys.argv.(i) = "--json" then Some Sys.argv.(i + 1)
    else find (i + 1)
  in
  find 1

(* A spine of exactly [s] pairwise-incomparable points: required time
   descending, load ascending, area descending. *)
let spine s =
  List.init s (fun j ->
      Solution.make
        ~req:(float_of_int (s - j))
        ~load:(float_of_int j)
        ~area:(float_of_int (2 * (s - j)))
        j)

(* Spine plus dominated noise, shuffled: the frontier of the bag is the
   spine, so the surviving-curve size is controlled exactly. *)
let bag ~rand ~mult s =
  let sp = spine s in
  let noise =
    List.concat_map
      (fun (p : int Solution.t) ->
         List.init (mult - 1) (fun _ ->
             Solution.make
               ~req:(p.Solution.req -. (0.5 +. Random.State.float rand 3.0))
               ~load:(p.Solution.load +. (0.5 +. Random.State.float rand 3.0))
               ~area:(p.Solution.area +. (0.5 +. Random.State.float rand 3.0))
               p.Solution.data))
      sp
  in
  let arr = Array.of_list (sp @ noise) in
  for i = Array.length arr - 1 downto 1 do
    let j = Random.State.int rand (i + 1) in
    let t = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- t
  done;
  arr

let checksum c =
  let sum = ref 0.0 in
  for i = 0 to Curve.size c - 1 do
    sum := !sum +. Float.Array.get c.Curve.req i
  done;
  !sum

let time_it reps f =
  (* One warm-up call keeps first-use allocation effects out of the
     measurement. *)
  let sink = ref (f ()) in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to reps do
    sink := f ()
  done;
  let dt = Unix.gettimeofday () -. t0 in
  (dt /. float_of_int reps, !sink)

type row = {
  workload : string;
  frontier : int;
  candidates : int;
  ref_us : float;
  batch_us : float;
}

let rows : row list ref = ref []

let report ~workload ~frontier ~candidates ~ref_us ~batch_us =
  rows := { workload; frontier; candidates; ref_us; batch_us } :: !rows;
  Printf.printf "| %-12s | %8d | %10d | %12.1f | %12.1f | %7.1fx |\n%!"
    workload frontier candidates ref_us batch_us (ref_us /. batch_us)

let run_adds ~rand ~reps s =
  let mult = 8 in
  let candidates = bag ~rand ~mult s in
  let n = Array.length candidates in
  let ref_s, ref_out =
    time_it reps (fun () ->
        Array.fold_left Curve_reference.add Curve_reference.empty candidates)
  in
  let batch_s, batch_out =
    time_it reps (fun () ->
        let bld = Curve.Builder.create () in
        Array.iter (Curve.Builder.add bld) candidates;
        Curve.Builder.build bld)
  in
  let ref_sum =
    List.fold_left
      (fun acc s -> acc +. s.Solution.req)
      0.0
      (Curve_reference.to_list ref_out)
  in
  if checksum batch_out <> ref_sum || Curve.size batch_out <> s then
    failwith "Curve_bench.run_adds: implementations disagree";
  report ~workload:"add" ~frontier:s ~candidates:n ~ref_us:(ref_s *. 1e6)
    ~batch_us:(batch_s *. 1e6)

let run_join ~reps f =
  let left = spine f
  and right =
    List.map (fun (s : int Solution.t) -> { s with Solution.data = -s.Solution.data })
      (spine f)
  in
  let join (a : int Solution.t) (b : int Solution.t) =
    ( min a.Solution.req b.Solution.req,
      a.Solution.load +. b.Solution.load,
      a.Solution.area +. b.Solution.area )
  in
  let ref_s, ref_out =
    time_it reps (fun () ->
        List.fold_left
          (fun acc a ->
             List.fold_left
               (fun acc b ->
                  let req, load, area = join a b in
                  Curve_reference.add acc
                    (Solution.make ~req ~load ~area (a.Solution.data, b.Solution.data)))
               acc right)
          Curve_reference.empty left)
  in
  let batch_s, batch_out =
    time_it reps (fun () ->
        let bld = Curve.Builder.create () in
        List.iter
          (fun a ->
             List.iter
               (fun b ->
                  let req, load, area = join a b in
                  Curve.Builder.push bld ~req ~load ~area
                    (a.Solution.data, b.Solution.data))
               right)
          left;
        Curve.Builder.build bld)
  in
  if Curve.size batch_out <> Curve_reference.size ref_out then
    failwith "Curve_bench.run_join: implementations disagree";
  report ~workload:"join-product" ~frontier:f ~candidates:(f * f)
    ~ref_us:(ref_s *. 1e6) ~batch_us:(batch_s *. 1e6)

let () =
  let rand = Random.State.make [| 2026; 8; 7 |] in
  let sizes = [ 16; 64; 256 ] in
  let reps s = if smoke then 3 else max 5 (20000 / s) in
  Printf.printf
    "| workload     | frontier | candidates |   ref us/op  |  batch us/op |  ref/batch |\n";
  Printf.printf
    "|--------------|----------|------------|--------------|--------------|---------|\n";
  List.iter (fun s -> run_adds ~rand ~reps:(reps s) s) sizes;
  List.iter (fun f -> run_join ~reps:(reps f) f) sizes;
  match json_path with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    let row_json r =
      Printf.sprintf
        "    {\"workload\":\"%s\",\"frontier\":%d,\"candidates\":%d,\"ref_us\":%.2f,\"batch_us\":%.2f}"
        r.workload r.frontier r.candidates r.ref_us r.batch_us
    in
    Printf.fprintf oc "{\n  \"bench\": \"curve_kernel\",\n  \"rows\": [\n%s\n  ]\n}\n"
      (String.concat ",\n" (List.rev_map row_json !rows));
    close_out oc
