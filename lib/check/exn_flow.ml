(* C2 — exception flow out of task closures.

   An exception escaping a pool task does not surface where it is
   raised: the pool stores it and re-raises at await, far from the
   offending net and after sibling tasks kept running.  The rule flags
   occurrences of raising primitives ([raise], [failwith], ...) and
   exception-partial accessors ([Option.get], [List.hd], [Hashtbl.find],
   ...) inside a task closure when no enclosing handler ([try] or
   [match ... with exception]) covers them in that closure.

   Intraprocedural by design: a closure calling a helper that raises is
   not seen (documented false negative).  [Texp_assert] counts as a
   raiser — [Assert_failure] at await is the least debuggable of all. *)

let rule = "task-exn-escape"

(* Raising primitives, matched fully qualified. *)
let raisers =
  [ ([ "Stdlib"; "raise" ], "raise");
    ([ "Stdlib"; "raise_notrace" ], "raise_notrace");
    ([ "Stdlib"; "failwith" ], "failwith");
    ([ "Stdlib"; "invalid_arg" ], "invalid_arg") ]

(* Accessors that raise on the empty/absent case, matched by suffix so
   [Stdlib.Hashtbl.find] and a reexport both register. *)
let partial_accessors =
  [ ([ "Option"; "get" ], "Option.get");
    ([ "List"; "hd" ], "List.hd");
    ([ "List"; "tl" ], "List.tl");
    ([ "List"; "nth" ], "List.nth");
    ([ "List"; "find" ], "List.find");
    ([ "List"; "assoc" ], "List.assoc");
    ([ "Hashtbl"; "find" ], "Hashtbl.find");
    ([ "Queue"; "pop" ], "Queue.pop");
    ([ "Queue"; "take" ], "Queue.take");
    ([ "Queue"; "peek" ], "Queue.peek");
    ([ "Stack"; "pop" ], "Stack.pop");
    ([ "Stack"; "top" ], "Stack.top") ]

type region = { r_file : string; r_start : int; r_end : int }

let region_of (loc : Location.t) =
  { r_file = loc.Location.loc_start.Lexing.pos_fname;
    r_start = loc.Location.loc_start.Lexing.pos_cnum;
    r_end = loc.Location.loc_end.Lexing.pos_cnum }

let in_region regions (loc : Location.t) =
  let p = loc.Location.loc_start in
  List.exists
    (fun r ->
       String.equal r.r_file p.Lexing.pos_fname
       && p.Lexing.pos_cnum >= r.r_start
       && p.Lexing.pos_cnum <= r.r_end)
    regions

(* Does a computation pattern carry an exception case? *)
let rec has_exception_case : type k. k Typedtree.general_pattern -> bool =
  fun p ->
    match p.Typedtree.pat_desc with
    | Typedtree.Tpat_exception _ -> true
    | Typedtree.Tpat_or (a, b, _) -> has_exception_case a || has_exception_case b
    | Typedtree.Tpat_value _ -> false
    | _ -> false

(* Handler regions inside the closure: [try] expressions and matches
   with an [exception] case. *)
let handler_regions closure =
  let regions = ref [] in
  let iter =
    { Tast_iterator.default_iterator with
      expr =
        (fun sub e ->
           (match e.Typedtree.exp_desc with
            | Typedtree.Texp_try _ ->
              regions := region_of e.Typedtree.exp_loc :: !regions
            | Typedtree.Texp_match (_, cases, _) ->
              if
                List.exists
                  (fun c -> has_exception_case c.Typedtree.c_lhs)
                  cases
              then regions := region_of e.Typedtree.exp_loc :: !regions
            | _ -> ());
           Tast_iterator.default_iterator.expr sub e) }
  in
  iter.Tast_iterator.expr iter closure;
  !regions

let raiser_name env p =
  let comps =
    match Pathx.resolve env p with
    | Some comps -> comps
    | None -> (
      match Pathx.flatten p with
      | Some raw -> Pathx.normalize raw
      | None -> [])
  in
  match
    List.find_opt (fun (path, _) -> List.equal String.equal path comps) raisers
  with
  | Some (_, name) -> Some name
  | None ->
    List.find_map
      (fun (suffix, name) ->
         if Pathx.has_suffix ~suffix comps then Some name else None)
      partial_accessors

let check_site env waivers (site : Task_sites.site) =
  let regions = handler_regions site.Task_sites.closure in
  let findings = ref [] in
  let report loc name =
    let file = loc.Location.loc_start.Lexing.pos_fname in
    let line = loc.Location.loc_start.Lexing.pos_lnum in
    let col =
      loc.Location.loc_start.Lexing.pos_cnum
      - loc.Location.loc_start.Lexing.pos_bol
    in
    if
      (not (in_region regions loc))
      && not (Waivers.waived waivers ~file ~line ~token:"exn-flow")
    then
      findings :=
        Finding.make ~file ~line ~col ~rule ~severity:Finding.Warning
          (Printf.sprintf
             "%s may raise inside a %s task closure with no enclosing \
              handler; the exception only surfaces at await — handle it \
              in the task"
             name site.Task_sites.sink)
        :: !findings
  in
  let iter =
    { Tast_iterator.default_iterator with
      expr =
        (fun sub e ->
           (match e.Typedtree.exp_desc with
            | Typedtree.Texp_ident (p, _, _) -> (
              match raiser_name env p with
              | Some name -> report e.Typedtree.exp_loc name
              | None -> ())
            | Typedtree.Texp_assert _ -> report e.Typedtree.exp_loc "assert"
            | _ -> ());
           Tast_iterator.default_iterator.expr sub e) }
  in
  iter.Tast_iterator.expr iter site.Task_sites.closure;
  List.rev !findings

let check ~waivers (units : Cmt_load.t list) =
  List.concat_map
    (fun (u : Cmt_load.t) ->
       if Cmt_load.is_pool_internal u then []
       else
         match u.Cmt_load.impl with
         | None -> []
         | Some str ->
           let env = Pathx.alias_env_of_structure str in
           List.concat_map (check_site env waivers) (Task_sites.collect env str))
    units
