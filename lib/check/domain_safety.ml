(* C1 — domain-unsafe capture.

   A closure handed to the pool runs on a worker domain.  If it mutates
   a ref, array, Hashtbl, Buffer, Queue, Stack or mutable record field
   that was created *outside* the closure, two tasks can race on it.
   The rule flags every such mutation unless it sits inside a
   [Mutex.protect] region, the unit is the pool implementation itself
   (lib/exec owns the lock discipline), or the line carries a
   [check: domain-safe] waiver.

   Mechanics: for each task closure we collect the idents bound inside
   it (patterns and for-loop indices), the source regions covered by
   [Mutex.protect] calls, and the mutation sites.  A mutation whose
   target's root ident is global or not bound inside the closure, and
   whose location is not inside a protect region, is a finding.

   Known false negatives (documented in DESIGN.md): closures reaching
   the pool through variables or functors, mutation through an alias
   bound inside the closure ([let r' = r in r' := ...]), and Atomic —
   deliberately exempt, it is safe by construction. *)

let rule = "domain-unsafe-capture"

(* (path suffix, index of the mutated argument, display name).
   Ref primitives are matched fully qualified — the typedtree always
   spells them [Stdlib.(:=)] — so a user-defined [incr] does not
   trip the rule. *)
let mutators =
  [ ([ "Stdlib"; ":=" ], 0, ":=");
    ([ "Stdlib"; "incr" ], 0, "incr");
    ([ "Stdlib"; "decr" ], 0, "decr");
    ([ "Array"; "set" ], 0, "Array.set");
    ([ "Array"; "unsafe_set" ], 0, "Array.unsafe_set");
    ([ "Array"; "fill" ], 0, "Array.fill");
    ([ "Array"; "blit" ], 2, "Array.blit");
    ([ "Array"; "sort" ], 1, "Array.sort");
    ([ "Array"; "fast_sort" ], 1, "Array.fast_sort");
    ([ "Array"; "stable_sort" ], 1, "Array.stable_sort");
    ([ "Bytes"; "set" ], 0, "Bytes.set");
    ([ "Bytes"; "unsafe_set" ], 0, "Bytes.unsafe_set");
    ([ "Bytes"; "fill" ], 0, "Bytes.fill");
    ([ "Bytes"; "blit" ], 2, "Bytes.blit");
    ([ "Hashtbl"; "add" ], 0, "Hashtbl.add");
    ([ "Hashtbl"; "replace" ], 0, "Hashtbl.replace");
    ([ "Hashtbl"; "remove" ], 0, "Hashtbl.remove");
    ([ "Hashtbl"; "reset" ], 0, "Hashtbl.reset");
    ([ "Hashtbl"; "clear" ], 0, "Hashtbl.clear");
    ([ "Hashtbl"; "filter_map_inplace" ], 1, "Hashtbl.filter_map_inplace");
    ([ "Queue"; "add" ], 1, "Queue.add");
    ([ "Queue"; "push" ], 1, "Queue.push");
    ([ "Queue"; "pop" ], 0, "Queue.pop");
    ([ "Queue"; "take" ], 0, "Queue.take");
    ([ "Queue"; "clear" ], 0, "Queue.clear");
    ([ "Queue"; "transfer" ], 0, "Queue.transfer");
    ([ "Stack"; "push" ], 1, "Stack.push");
    ([ "Stack"; "pop" ], 0, "Stack.pop");
    ([ "Stack"; "clear" ], 0, "Stack.clear");
    ([ "Buffer"; "add_string" ], 0, "Buffer.add_string");
    ([ "Buffer"; "add_char" ], 0, "Buffer.add_char");
    ([ "Buffer"; "add_bytes" ], 0, "Buffer.add_bytes");
    ([ "Buffer"; "add_buffer" ], 0, "Buffer.add_buffer");
    ([ "Buffer"; "clear" ], 0, "Buffer.clear");
    ([ "Buffer"; "reset" ], 0, "Buffer.reset") ]

let iter_expressions f node_iter =
  let iter =
    { Tast_iterator.default_iterator with
      expr =
        (fun sub e ->
           f e;
           Tast_iterator.default_iterator.expr sub e) }
  in
  node_iter iter

let iter_closure_exprs f (closure : Typedtree.expression) =
  iter_expressions f (fun iter -> iter.Tast_iterator.expr iter closure)

(* Idents bound anywhere inside the closure: pattern variables,
   aliases and for-loop indices. *)
let bound_idents closure =
  let bound = ref [] in
  let add id = bound := id :: !bound in
  let pat : type k. Tast_iterator.iterator -> k Typedtree.general_pattern -> unit
    =
    fun sub p ->
      (match p.Typedtree.pat_desc with
       | Typedtree.Tpat_var (id, _) -> add id
       | Typedtree.Tpat_alias (_, id, _) -> add id
       | _ -> ());
      Tast_iterator.default_iterator.pat sub p
  in
  let iter =
    { Tast_iterator.default_iterator with
      pat;
      expr =
        (fun sub e ->
           (match e.Typedtree.exp_desc with
            | Typedtree.Texp_for (id, _, _, _, _, _) -> add id
            | _ -> ());
           Tast_iterator.default_iterator.expr sub e) }
  in
  iter.Tast_iterator.expr iter closure;
  !bound

let is_bound bound id = List.exists (Ident.same id) bound

(* Source regions covered by a [Mutex.protect] application; a mutation
   located inside one is lock-protected. *)
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

let protect_regions env closure =
  let regions = ref [] in
  iter_closure_exprs
    (fun e ->
       match e.Typedtree.exp_desc with
       | Typedtree.Texp_apply (fn, _) -> (
         match fn.Typedtree.exp_desc with
         | Typedtree.Texp_ident (p, _, _) -> (
           match Pathx.resolve env p with
           | Some comps
             when Pathx.has_suffix ~suffix:[ "Mutex"; "protect" ] comps ->
             regions := region_of e.Typedtree.exp_loc :: !regions
           | _ -> ())
         | _ -> ())
       | _ -> ())
    closure;
  !regions

(* The root ident of a mutation target, looking through field and array
   projections: [t.buf] mutates whatever [t] is. *)
let rec root_ident e =
  match e.Typedtree.exp_desc with
  | Typedtree.Texp_ident (p, _, _) -> Some p
  | Typedtree.Texp_field (base, _, _) -> root_ident base
  | _ -> None

(* A captured (hazardous) target: a global path, or a local ident not
   bound inside the closure.  Returns its display name. *)
let hazard env bound target =
  match root_ident target with
  | None -> None
  | Some p -> (
    match Pathx.head_ident p with
    | Some id when not (Ident.global id) ->
      if is_bound bound id then None else Some (Ident.name id)
    | _ -> (
      match Pathx.resolve env p with
      | Some comps -> Some (Pathx.to_string comps)
      | None -> Some (Path.name p)))

let nth_arg args idx =
  match List.nth_opt args idx with
  | Some (_, Some e) -> (Some e : Typedtree.expression option)
  | _ -> None

let check_site env waivers (site : Task_sites.site) =
  let bound = bound_idents site.Task_sites.closure in
  let regions = protect_regions env site.Task_sites.closure in
  let findings = ref [] in
  let report loc what name =
    let file = loc.Location.loc_start.Lexing.pos_fname in
    let line = loc.Location.loc_start.Lexing.pos_lnum in
    let col =
      loc.Location.loc_start.Lexing.pos_cnum
      - loc.Location.loc_start.Lexing.pos_bol
    in
    if
      (not (in_region regions loc))
      && not (Waivers.waived waivers ~file ~line ~token:"domain-safe")
    then
      findings :=
        Finding.make ~file ~line ~col ~rule ~severity:Finding.Error
          (Printf.sprintf
             "%s task closure mutates %s (via %s) captured from outside \
              the task; races across domains — wrap in Mutex.protect or \
              keep the state task-local"
             site.Task_sites.sink name what)
        :: !findings
  in
  iter_closure_exprs
    (fun e ->
       match e.Typedtree.exp_desc with
       | Typedtree.Texp_setfield (target, _, label, _) -> (
         match hazard env bound target with
         | Some name ->
           report e.Typedtree.exp_loc
             (Printf.sprintf "field %s <-" label.Types.lbl_name)
             name
         | None -> ())
       | Typedtree.Texp_apply (fn, args) -> (
         match fn.Typedtree.exp_desc with
         | Typedtree.Texp_ident (p, _, _) -> (
           let comps =
             match Pathx.resolve env p with
             | Some comps -> comps
             | None -> (
               match Pathx.flatten p with
               | Some raw -> Pathx.normalize raw
               | None -> [])
           in
           match
             List.find_opt
               (fun (suffix, _, _) -> Pathx.has_suffix ~suffix comps)
               mutators
           with
           | None -> ()
           | Some (_, idx, display) -> (
             match nth_arg args idx with
             | None -> ()
             | Some target -> (
               match hazard env bound target with
               | Some name -> report e.Typedtree.exp_loc display name
               | None -> ())))
         | _ -> ())
       | _ -> ())
    site.Task_sites.closure;
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
