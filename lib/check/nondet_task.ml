(* C7 — nondeterminism in a task closure.

   A closure handed to the pool (or to the flow orchestrator, the
   scheduler, or the hier farm — Task_sites' sink table) must be a
   deterministic function of its captures and arguments, or the
   order-independence contracts break: [Pool.map] stops being
   [List.map], hier routing stops being bit-identical across [-j], and
   a replayed request stops matching its cache entry.  The rule flags
   the first nondeterministic reference inside each task closure — a
   direct source-table hit ([Random.int], [Clock.monotonic_s], ...) or
   a call to a function Purity's fixpoint classified nondeterministic,
   with the call chain in the message.

   Telemetry is the legitimate exception: routing tasks time
   themselves ([Clock.timed] around the inner flow) and the runtime
   field is zeroed out of every determinism comparison.  Such paths
   carry a same-line [check: nondet-ok] waiver — visible, audited,
   grep-able.

   Like C1/C2, lib/exec itself is exempt (the pool's own telemetry is
   the implementation of the timers), and closures reaching a sink
   through a variable are not seen — a documented false negative. *)

let rule = "nondet-in-task"

let token = "nondet-ok"

let check_site purity ~unit_name env waivers (site : Task_sites.site) =
  match
    Purity.nondet_use purity ~unit_name env site.Task_sites.closure
  with
  | None -> []
  | Some (loc, trace) ->
    let file = loc.Location.loc_start.Lexing.pos_fname in
    let line = loc.Location.loc_start.Lexing.pos_lnum in
    let col =
      loc.Location.loc_start.Lexing.pos_cnum
      - loc.Location.loc_start.Lexing.pos_bol
    in
    if Waivers.waived waivers ~file ~line ~token then []
    else
      [ Finding.make ~file ~line ~col ~rule ~severity:Finding.Warning
          (Printf.sprintf
             "%s task closure reaches nondeterministic %s; task results \
              must be a pure function of task inputs for order-independent \
              replay — seed it, hoist it out of the task, or waive with \
              nondet-ok if it only feeds telemetry"
             site.Task_sites.sink
             (Purity.render_trace trace)) ]

let check ~waivers ~purity (units : Cmt_load.t list) =
  List.concat_map
    (fun (u : Cmt_load.t) ->
       if Cmt_load.is_pool_internal u then []
       else
         match u.Cmt_load.impl with
         | None -> []
         | Some str ->
           let env = Pathx.alias_env_of_structure str in
           List.concat_map
             (check_site purity ~unit_name:u.Cmt_load.name env waivers)
             (Task_sites.collect env str))
    units
