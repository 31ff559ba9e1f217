(* C9 — Hashtbl iteration order escaping unsorted.

   [Hashtbl.iter]/[fold]/[to_seq*] visit buckets in an order that
   depends on insertion history and (under randomized hashing) the
   process seed.  A result built from such a traversal that escapes —
   into routed output, a serialized frame, a cache key, a report row —
   makes the output a function of memory layout, not of the input.
   The fix is always the same: sort the traversal's product
   ([List.sort] with a dedicated comparator) or iterate a sorted key
   list instead.

   The rule flags every Hashtbl-traversal application except

   - one nested inside an application whose subtree also contains a
     sort ([List.sort foo (Hashtbl.fold ...)], and pipelines
     [Hashtbl.fold ... |> List.sort foo], which typecheck as one
     [|>] application spanning both); or
   - one let-bound to an ident that is later used inside such a
     sorting application ([let rows = Hashtbl.fold ... in ...
     List.sort cmp rows]).

   Order-insensitive folds (a sum, a max) are flagged too — the
   analysis cannot see commutativity — and carry a same-line
   [check: nondet-ok] waiver when the author can.

   Known false negatives: a sort that drops keys the traversal
   depended on, sorts hidden behind helper functions, and traversal
   results escaping through mutation rather than binding. *)

let rule = "order-sensitive-fold"

let token = "nondet-ok"

(* (path suffix, display name): traversals in bucket order. *)
let traversals =
  [ ([ "Hashtbl"; "iter" ], "Hashtbl.iter");
    ([ "Hashtbl"; "fold" ], "Hashtbl.fold");
    ([ "Hashtbl"; "to_seq" ], "Hashtbl.to_seq");
    ([ "Hashtbl"; "to_seq_keys" ], "Hashtbl.to_seq_keys");
    ([ "Hashtbl"; "to_seq_values" ], "Hashtbl.to_seq_values") ]

let sorters =
  [ [ "List"; "sort" ]; [ "List"; "sort_uniq" ]; [ "List"; "stable_sort" ];
    [ "List"; "fast_sort" ]; [ "Array"; "sort" ]; [ "Array"; "stable_sort" ];
    [ "Array"; "fast_sort" ] ]

let start_cnum (loc : Location.t) = loc.Location.loc_start.Lexing.pos_cnum

let end_cnum (loc : Location.t) = loc.Location.loc_end.Lexing.pos_cnum

let loc_file (loc : Location.t) = loc.Location.loc_start.Lexing.pos_fname

type span = { file : string; s_start : int; s_end : int }

let within spans (loc : Location.t) =
  let file = loc_file loc and c = start_cnum loc in
  List.exists
    (fun s ->
       String.equal s.file file && c >= s.s_start && c <= s.s_end)
    spans

let iter_exprs f str =
  let iter =
    { Tast_iterator.default_iterator with
      expr =
        (fun sub e ->
           f e;
           Tast_iterator.default_iterator.expr sub e) }
  in
  iter.Tast_iterator.structure iter str

let subtree_has pred root =
  let found = ref false in
  let iter =
    { Tast_iterator.default_iterator with
      expr =
        (fun sub e ->
           (match e.Typedtree.exp_desc with
            | Typedtree.Texp_ident (p, _, _) -> if pred p then found := true
            | _ -> ());
           Tast_iterator.default_iterator.expr sub e) }
  in
  iter.Tast_iterator.expr iter root;
  !found

let check_unit waivers (str : Typedtree.structure) =
  let env = Pathx.alias_env_of_structure str in
  let is_sorter p =
    List.exists (fun suffix -> Concur.suffixed env p suffix) sorters
  in
  (* Spans of applications that sort something in their subtree. *)
  let sorted_spans = ref [] in
  iter_exprs
    (fun e ->
       match e.Typedtree.exp_desc with
       | Typedtree.Texp_apply _ when subtree_has is_sorter e ->
         let loc = e.Typedtree.exp_loc in
         sorted_spans :=
           { file = loc_file loc;
             s_start = start_cnum loc;
             s_end = end_cnum loc }
           :: !sorted_spans
       | _ -> ())
    str;
  let sorted_spans = !sorted_spans in
  (* Traversal sites not already inside a sorting application. *)
  let sites = ref [] in
  iter_exprs
    (fun e ->
       match e.Typedtree.exp_desc with
       | Typedtree.Texp_apply (head, _) -> (
         match head.Typedtree.exp_desc with
         | Typedtree.Texp_ident (p, _, _) -> (
           match
             List.find_map
               (fun (suffix, name) ->
                  if Concur.suffixed env p suffix then Some name else None)
               traversals
           with
           | Some name when not (within sorted_spans e.Typedtree.exp_loc) ->
             sites := (e.Typedtree.exp_loc, name) :: !sites
           | _ -> ())
         | _ -> ())
       | _ -> ())
    str;
  let sites = List.rev !sites in
  (* A site let-bound to an ident later used inside a sorting
     application is sorted downstream; collect those binder idents and
     their sites, then look at every use. *)
  let bound_sites = ref [] in
  let vb_iter =
    { Tast_iterator.default_iterator with
      value_binding =
        (fun sub vb ->
           (match vb.Typedtree.vb_pat.Typedtree.pat_desc with
            | Typedtree.Tpat_var (id, _) ->
              let span = vb.Typedtree.vb_expr.Typedtree.exp_loc in
              let covered =
                List.filter
                  (fun ((loc : Location.t), _) ->
                     String.equal (loc_file loc) (loc_file span)
                     && start_cnum loc >= start_cnum span
                     && start_cnum loc <= end_cnum span)
                  sites
              in
              (match covered with
               | [] -> ()
               | _ :: _ -> bound_sites := (id, covered) :: !bound_sites)
            | _ -> ());
           Tast_iterator.default_iterator.value_binding sub vb) }
  in
  vb_iter.Tast_iterator.structure vb_iter str;
  let sorted_downstream = Hashtbl.create 8 in
  iter_exprs
    (fun e ->
       match e.Typedtree.exp_desc with
       | Typedtree.Texp_ident (Path.Pident id, _, _)
         when within sorted_spans e.Typedtree.exp_loc ->
         List.iter
           (fun (id', covered) ->
              if Ident.same id id' then
                List.iter
                  (fun ((loc : Location.t), _) ->
                     Hashtbl.replace sorted_downstream (start_cnum loc) ())
                  covered)
           !bound_sites
       | _ -> ())
    str;
  List.filter_map
    (fun ((loc : Location.t), name) ->
       if Hashtbl.mem sorted_downstream (start_cnum loc) then None
       else
         let file = loc.Location.loc_start.Lexing.pos_fname in
         let line = loc.Location.loc_start.Lexing.pos_lnum in
         let col =
           loc.Location.loc_start.Lexing.pos_cnum
           - loc.Location.loc_start.Lexing.pos_bol
         in
         if Waivers.waived waivers ~file ~line ~token then None
         else
           Some
             (Finding.make ~file ~line ~col ~rule
                ~severity:Finding.Warning
                (Printf.sprintf
                   "%s visits buckets in nondeterministic order and its \
                    result is never sorted; sort the product (List.sort \
                    with a dedicated comparator) before it escapes, or \
                    waive with nondet-ok if order provably cannot"
                   name)))
    sites

let check ~waivers (units : Cmt_load.t list) =
  List.concat_map
    (fun (u : Cmt_load.t) ->
       match u.Cmt_load.impl with
       | None -> []
       | Some str -> check_unit waivers str)
    units
