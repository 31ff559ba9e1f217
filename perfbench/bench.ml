(* Benchmark entry point.

     bench.exe --workload table1|hier|serve [--seed N] [--seconds S]
               [--trace 0|1] [--cli PATH] [--work DIR]

   Runs one workload for about [S] seconds, checks every output, and
   prints two lines on stdout: a record (environment, per-workload
   details) and, last, the result line
   {"correct", "attempted", "failed", "metrics"}.  Untraced runs report
   the end-to-end metrics, traced runs the per-layer ones; the traced
   run also writes its spans to DIR/trace-WORKLOAD-seedN.json.  The
   serve workload starts [merlin-cli serve] from [--cli]; its sockets
   and store live under DIR and are removed on every exit path. *)

open Common
module Stats = Perfbench_kit.Stats

exception Interrupted

let usage () =
  prerr_endline
    "usage: bench.exe --workload table1|hier|serve [--seed N] [--seconds S] \
     [--trace 0|1] [--cli PATH] [--work DIR]";
  exit 2

let parse argv =
  let workload = ref "" and seed = ref 0 and seconds = ref 25.0 in
  let trace = ref false and cli = ref "_build/default/bin/merlin_cli.exe" in
  let work = ref ".perfbench" in
  let rec go = function
    | "--workload" :: v :: rest -> workload := v; go rest
    | "--seed" :: v :: rest ->
      (match int_of_string_opt v with Some s -> seed := s | None -> usage ());
      go rest
    | "--seconds" :: v :: rest ->
      (match float_of_string_opt v with
       | Some s when s > 0.0 -> seconds := s
       | _ -> usage ());
      go rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := v = "1"; go rest
    | "--cli" :: v :: rest -> cli := v; go rest
    | "--work" :: v :: rest -> work := v; go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list argv));
  if not (List.mem !workload [ "table1"; "hier"; "serve" ]) then usage ();
  ( !workload,
    !work,
    { seed = !seed;
      seconds = !seconds;
      trace = !trace;
      cli = !cli;
      run_dir = Filename.concat !work (Printf.sprintf "run-%d" (Unix.getpid ())) } )

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let metric (name, value, unit_) = { Stats.name; value; unit_ }

let () =
  let workload, work, opts = parse Sys.argv in
  let interrupt = Sys.Signal_handle (fun _ -> raise Interrupted) in
  Sys.set_signal Sys.sigint interrupt;
  Sys.set_signal Sys.sigterm interrupt;
  mkdir_p opts.run_dir;
  let tally = tally () in
  let cleanup () =
    Wl_serve.stop_all ();
    Wl_serve.rm_rf opts.run_dir
  in
  let metrics, details, traces =
    Fun.protect ~finally:cleanup (fun () ->
        match workload with
        | "table1" ->
          let e, l, d, tr = Wl_flows.table1 opts tally in
          ((if opts.trace then l else e), d, tr)
        | "hier" ->
          let e, l, d, tr = Wl_flows.hier opts tally in
          ((if opts.trace then l else e), d, tr)
        | _ ->
          let e, l, d, tr = Wl_serve.run opts tally in
          ((if opts.trace then l else e), d, tr))
  in
  List.iter
    (fun (name, v, _) ->
       check tally (Float.is_finite v) (name ^ ": not a finite number"))
    metrics;
  let metrics = List.filter (fun (_, v, _) -> Float.is_finite v) metrics in
  if opts.trace && traces <> [] then
    write_file
      (Filename.concat work (Printf.sprintf "trace-%s-seed%d.json" workload opts.seed))
      (Json.to_string (Json.List (List.map Trace.to_json traces)));
  let result =
    { Stats.correct = tally.failed = 0;
      attempted = max 1 tally.attempted;
      failed = tally.failed;
      metrics = List.map metric metrics }
  in
  let line = Stats.result_line result in
  (* Read the line back before printing it: it is what harnesses parse. *)
  (match Stats.result_of_line line with
   | Ok r when r = result -> ()
   | Ok _ -> failwith "Bench: the result line does not read back to itself"
   | Error e -> failwith ("Bench: unreadable result line: " ^ e));
  print_endline
    (Json.to_string
       (Json.Obj
          [ ("record",
             Json.Obj
               [ ("workload", Json.Str workload);
                 ("env", Json.Obj (env opts));
                 ("details", details) ]) ]));
  print_endline line
