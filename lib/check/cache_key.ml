(* C8 — nondeterministic value in a cache/request key.

   The serving layer dedups work by [request_key = MD5(spec JSON ⊕ NUL
   ⊕ Net_io.fingerprint net)] and caches results in an [Lru] keyed by
   it; ROADMAP item 2 shares that key across daemon replicas and a
   persistent store.  The key is only sound if it is a deterministic
   function of the request: a wall-clock read, a [Random] draw or any
   other Purity source flowing into it poisons every replica that
   replays the computation.  Unlike C7 there is no telemetry
   exception — an impure key is always a bug — so the severity is
   error; [check: nondet-ok] still waives a deliberate site (e.g. a
   test probing cache-miss behavior).

   Mechanics: per compilation unit, (1) collect the let-bound idents
   whose right-hand side contains a nondeterministic use (taint,
   source-order, so chained lets propagate); (2) at every application
   of a key sink — [Wire.request_key] (all args), [Lru.find]/[Lru.add]
   (the key argument), [Net_io.fingerprint], [Scheduler.schedule]'s
   [~key] — flag a key argument whose subtree contains a
   nondeterministic use or a tainted ident.

   Known false negatives: taint through record/tuple fields, through
   function results ([let k = make_key () in] where [make_key] is
   local-but-unresolvable), and keys built in another unit and passed
   in. *)

let rule = "impure-cache-key"

let token = "nondet-ok"

type key_sel = All | Pos of int | Label of string

(* (path suffix, key argument selector, display name) *)
let key_sinks =
  [ ([ "Wire"; "request_key" ], All, "Wire.request_key");
    ([ "Lru"; "find" ], Pos 1, "Lru.find");
    ([ "Lru"; "add" ], Pos 1, "Lru.add");
    ([ "Net_io"; "fingerprint" ], Pos 0, "Net_io.fingerprint");
    ([ "Scheduler"; "schedule" ], Label "key", "Scheduler.schedule") ]

let pos_arg args i =
  let rec go n = function
    | [] -> None
    | (Asttypes.Nolabel, Some e) :: rest ->
      if n = i then Some (e : Typedtree.expression) else go (n + 1) rest
    | _ :: rest -> go n rest
  in
  go 0 args

let key_args sel args =
  match sel with
  | All -> List.filter_map snd args
  | Pos i -> ( match pos_arg args i with Some a -> [ a ] | None -> [])
  | Label l ->
    List.filter_map
      (fun (lbl, a) ->
         match (lbl, a) with
         | Asttypes.Labelled l', Some a when String.equal l l' ->
           Some (a : Typedtree.expression)
         | _ -> None)
      args

let iter_exprs f root =
  let iter =
    { Tast_iterator.default_iterator with
      expr =
        (fun sub e ->
           f e;
           Tast_iterator.default_iterator.expr sub e) }
  in
  iter.Tast_iterator.structure iter root

(* Let-bound idents whose right-hand side is nondeterministic, unit
   wide (binder idents are unique within a unit, so one flat set is
   collision-free).  A pass in source order lets [let a = Random.int n
   in let b = a + 1] taint [b] through [a]. *)
let tainted purity ~unit_name env str =
  let taint : (Ident.t, unit) Hashtbl.t = Hashtbl.create 8 in
  let is_tainted root =
    let hit = ref false in
    let iter =
      { Tast_iterator.default_iterator with
        expr =
          (fun sub e ->
             (match e.Typedtree.exp_desc with
              | Typedtree.Texp_ident (Path.Pident id, _, _)
                when Hashtbl.mem taint id ->
                hit := true
              | _ -> ());
             Tast_iterator.default_iterator.expr sub e) }
    in
    iter.Tast_iterator.expr iter root;
    !hit
    || Option.is_some (Purity.nondet_use purity ~unit_name env root)
  in
  let vb_iter =
    { Tast_iterator.default_iterator with
      value_binding =
        (fun sub vb ->
           (match vb.Typedtree.vb_pat.Typedtree.pat_desc with
            | Typedtree.Tpat_var (id, _) ->
              if is_tainted vb.Typedtree.vb_expr then
                Hashtbl.replace taint id ()
            | _ -> ());
           Tast_iterator.default_iterator.value_binding sub vb) }
  in
  vb_iter.Tast_iterator.structure vb_iter str;
  taint

let check_unit purity waivers (u : Cmt_load.t) str =
  let env = Pathx.alias_env_of_structure str in
  let unit_name = u.Cmt_load.name in
  let taint = tainted purity ~unit_name env str in
  let findings = ref [] in
  let report loc sink via =
    let file = loc.Location.loc_start.Lexing.pos_fname in
    let line = loc.Location.loc_start.Lexing.pos_lnum in
    let col =
      loc.Location.loc_start.Lexing.pos_cnum
      - loc.Location.loc_start.Lexing.pos_bol
    in
    if not (Waivers.waived waivers ~file ~line ~token) then
      findings :=
        Finding.make ~file ~line ~col ~rule ~severity:Finding.Error
          (Printf.sprintf
             "%s key derives from nondeterministic %s; cache keys must be \
              a deterministic function of the request or replays and \
              replicas disagree on what is cached"
             sink via)
        :: !findings
  in
  (* First tainted-ident occurrence in a key argument, for reporting
     at the use site. *)
  let tainted_use root =
    let best = ref None in
    let iter =
      { Tast_iterator.default_iterator with
        expr =
          (fun sub e ->
             (match e.Typedtree.exp_desc with
              | Typedtree.Texp_ident (Path.Pident id, _, _)
                when Hashtbl.mem taint id -> (
                let loc = e.Typedtree.exp_loc in
                let c = loc.Location.loc_start.Lexing.pos_cnum in
                match !best with
                | Some (c', _, _) when c' <= c -> ()
                | _ -> best := Some (c, loc, Ident.name id))
              | _ -> ());
             Tast_iterator.default_iterator.expr sub e) }
    in
    iter.Tast_iterator.expr iter root;
    Option.map (fun (_, loc, name) -> (loc, name)) !best
  in
  iter_exprs
    (fun e ->
       match e.Typedtree.exp_desc with
       | Typedtree.Texp_apply (head, args) -> (
         match head.Typedtree.exp_desc with
         | Typedtree.Texp_ident (p, _, _) -> (
           match
             List.find_opt
               (fun (suffix, _, _) -> Concur.suffixed env p suffix)
               key_sinks
           with
           | None -> ()
           | Some (_, sel, sink) ->
             List.iter
               (fun arg ->
                  match Purity.nondet_use purity ~unit_name env arg with
                  | Some (loc, trace) ->
                    report loc sink (Purity.render_trace trace)
                  | None -> (
                    match tainted_use arg with
                    | Some (loc, name) ->
                      report loc sink
                        (Printf.sprintf
                           "value (through let-bound %s)" name)
                    | None -> ()))
               (key_args sel args))
         | _ -> ())
       | _ -> ())
    str;
  List.rev !findings

let check ~waivers ~purity (units : Cmt_load.t list) =
  List.concat_map
    (fun (u : Cmt_load.t) ->
       match u.Cmt_load.impl with
       | None -> []
       | Some str -> check_unit purity waivers u str)
    units
