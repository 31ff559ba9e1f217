open Parsetree

(* Override just the expression hook, chaining to the iterator built so
   far.  [self] stays the fully-composed iterator, so recursion reaches
   every rule exactly once per node. *)
let on_expr prev check =
  let expr self e =
    check e;
    prev.Ast_iterator.expr self e
  in
  { prev with Ast_iterator.expr }

(* R1 — no polymorphic =/<>/compare on structured data.  The parsetree is
   untyped, so the check is syntactic: flag comparisons where an operand
   is visibly structured (constructor, list, tuple, record, array,
   closure), and any first-class use of polymorphic [compare].  Scalar
   literals and bool constructors pass. *)
module Poly_compare = struct
  let name = "poly-compare"

  let severity = Finding.Error

  let doc =
    "polymorphic =/<>/compare on structured data; use a dedicated \
     compare/equal (e.g. Solution.compare_key, Point.compare) or a \
     pattern match"

  let rec structural e =
    match e.pexp_desc with
    | Pexp_tuple _ | Pexp_record _ | Pexp_array _ | Pexp_fun _
    | Pexp_function _ ->
      true
    | Pexp_construct ({ txt = Longident.Lident ("true" | "false"); _ }, None)
      ->
      false
    | Pexp_construct _ | Pexp_variant _ -> true
    | Pexp_constraint (inner, _) | Pexp_open (_, inner) -> structural inner
    | _ -> false

  let is_poly_eq = function
    | Longident.Lident (("=" | "<>") as op) -> Some op
    | Longident.Ldot (Longident.Lident "Stdlib", (("=" | "<>") as op)) ->
      Some op
    | _ -> None

  let is_poly_compare = function
    | Longident.Lident "compare"
    | Longident.Ldot (Longident.Lident "Stdlib", "compare") ->
      true
    | _ -> false

  let hooks ctx prev =
    on_expr prev (fun e ->
        match e.pexp_desc with
        | Pexp_apply
            ({ pexp_desc = Pexp_ident { txt; _ }; _ }, ((_ :: _ :: _) as args))
          -> (
          match is_poly_eq txt with
          | Some op when List.exists (fun (_, a) -> structural a) args ->
            Rule.report ctx ~rule:name ~severity ~waiver:name
              ~loc:e.pexp_loc
              (Printf.sprintf
                 "polymorphic (%s) on structured data; use a dedicated \
                  equality or a pattern match"
                 op)
          | _ -> ())
        | Pexp_ident { txt; loc } when is_poly_compare txt ->
          Rule.report ctx ~rule:name ~severity ~waiver:name ~loc
            "polymorphic compare; use a dedicated compare function"
        | _ -> ())

  let files = Rule.no_files
end

(* R2 — no raising accessors in lib/: Hashtbl.find, List.hd, List.nth,
   Option.get.  Library code must use the _opt forms or pattern matches
   so failure is a value, not an untyped Not_found/Failure. *)
module Raising_accessor = struct
  let name = "raising-accessor"

  let severity = Finding.Error

  let doc =
    "raising accessor (Hashtbl.find, List.hd, List.nth, Option.get) in \
     lib/; use the _opt form or a pattern match"

  let banned = function
    | Longident.Ldot (Longident.Lident "Hashtbl", "find") ->
      Some ("Hashtbl.find", "Hashtbl.find_opt")
    | Longident.Ldot (Longident.Lident "List", "hd") ->
      Some ("List.hd", "a pattern match")
    | Longident.Ldot (Longident.Lident "List", "nth") ->
      Some ("List.nth", "List.nth_opt")
    | Longident.Ldot (Longident.Lident "Option", "get") ->
      Some ("Option.get", "a pattern match")
    | _ -> None

  let hooks ctx prev =
    if not ctx.Rule.in_lib then prev
    else
      on_expr prev (fun e ->
          match e.pexp_desc with
          | Pexp_ident { txt; loc } -> (
            match banned txt with
            | Some (bad, instead) ->
              Rule.report ctx ~rule:name ~severity ~waiver:name ~loc
                (Printf.sprintf "%s raises; use %s" bad instead)
            | None -> ())
          | _ -> ())

  let files = Rule.no_files
end

(* R3 — no physical equality.  ==/!= on immutable data is a semantic
   trap; the only sanctioned uses carry an explicit per-line waiver. *)
module Physical_eq = struct
  let name = "physical-eq"

  let severity = Finding.Error

  let doc =
    "physical equality ==/!=; use structural equality or add a \
     same-line [lint: physical-eq] waiver"

  let hooks ctx prev =
    on_expr prev (fun e ->
        match e.pexp_desc with
        | Pexp_ident { txt = Longident.Lident (("==" | "!=") as op); loc }
        | Pexp_ident
            { txt =
                Longident.Ldot
                  (Longident.Lident "Stdlib", (("==" | "!=") as op));
              loc } ->
          Rule.report ctx ~rule:name ~severity ~waiver:name ~loc
            (Printf.sprintf
               "physical equality (%s); compare structurally or add a \
                same-line [lint: physical-eq] waiver"
               op)
        | _ -> ())

  let files = Rule.no_files
end

(* R4 — failwith/invalid_arg messages must start with "Module.function:"
   so a raised error names its origin.  Checked on the leading string
   constant (direct literal, "..." ^ tail, or a sprintf format); dynamic
   messages with no visible literal are skipped. *)
module Error_prefix = struct
  let name = "error-prefix"

  let severity = Finding.Error

  let doc =
    "failwith/invalid_arg message must be prefixed \"Module.function:\""

  let rec leading_string e =
    match e.pexp_desc with
    | Pexp_constant (Pconst_string (s, _, _)) -> Some s
    | Pexp_apply
        ( { pexp_desc = Pexp_ident { txt = Longident.Lident "^"; _ }; _ },
          (_, lhs) :: _ ) ->
      leading_string lhs
    | Pexp_apply (_, args) ->
      (* sprintf-style call: the format literal is the first constant
         string argument. *)
      List.find_map
        (fun (_, a) ->
           match a.pexp_desc with
           | Pexp_constant (Pconst_string (s, _, _)) -> Some s
           | _ -> None)
        args
    | _ -> None

  let prefix_ok msg =
    match String.index_opt msg ':' with
    | None | Some 0 -> false
    | Some i ->
      let prefix = String.sub msg 0 i in
      (match prefix.[0] with 'A' .. 'Z' -> true | _ -> false)
      && String.contains prefix '.'
      && String.for_all
           (fun c ->
              match c with
              | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '\'' ->
                true
              | _ -> false)
           prefix

  let raiser = function
    | Longident.Lident (("failwith" | "invalid_arg") as f)
    | Longident.Ldot
        (Longident.Lident "Stdlib", (("failwith" | "invalid_arg") as f)) ->
      Some f
    | _ -> None

  let hooks ctx prev =
    on_expr prev (fun e ->
        match e.pexp_desc with
        | Pexp_apply
            ({ pexp_desc = Pexp_ident { txt; _ }; _ }, (Asttypes.Nolabel, arg) :: _)
          -> (
          match raiser txt with
          | None -> ()
          | Some f -> (
            match leading_string arg with
            | Some msg when not (prefix_ok msg) ->
              Rule.report ctx ~rule:name ~severity ~waiver:name
                ~loc:e.pexp_loc
                (Printf.sprintf
                   "%s message %S must start with \"Module.function:\"" f
                   msg)
            | Some _ | None -> ()))
        | _ -> ())

  let files = Rule.no_files
end

(* R5 — no catch-all exception handlers: [try ... with _ ->] swallows
   Out_of_memory, Stack_overflow and every programming error. *)
module Catch_all = struct
  let name = "catch-all"

  let severity = Finding.Error

  let doc = "catch-all try ... with _ ->; match specific exceptions"

  let rec catch_all_pat p =
    match p.ppat_desc with
    | Ppat_any -> true
    | Ppat_alias (inner, _) -> catch_all_pat inner
    | Ppat_or (a, b) -> catch_all_pat a || catch_all_pat b
    | _ -> false

  let hooks ctx prev =
    on_expr prev (fun e ->
        match e.pexp_desc with
        | Pexp_try (_, cases) ->
          List.iter
            (fun case ->
               if catch_all_pat case.pc_lhs then
                 Rule.report ctx ~rule:name ~severity ~waiver:name
                   ~loc:case.pc_lhs.ppat_loc
                   "catch-all exception handler; match specific exceptions")
            cases
        | _ -> ())

  let files = Rule.no_files
end

(* R6 — every lib/**/*.ml needs a sibling .mli: the interface is where
   invariants are documented and abstraction enforced. *)
module Mli_sibling = struct
  let name = "mli-sibling"

  let severity = Finding.Error

  let doc = "every lib/**/*.ml must have a sibling .mli"

  let hooks = Rule.no_hooks

  let files paths =
    List.filter_map
      (fun path ->
         if Filename.check_suffix path ".ml" && Rule.path_in_lib path then
           let mli = path ^ "i" in
           if List.mem mli paths || Sys.file_exists mli then None
           else
             Some
               (Finding.make ~file:path ~line:1 ~col:0 ~rule:name ~severity
                  "missing sibling .mli interface")
         else None)
      paths
end

(* R7 — no Curve.Builder.create inside loops in the DP hot paths
   (lib/core, lib/lttree and lib/ginneken).  The arena discipline
   (DESIGN.md §9) is one long-lived builder per DP context, cleared
   between batches, so steady-state builds allocate only their
   survivor arrays; a create inside a for/while body, an iter/fold
   callback or a [let rec] body (one call per tree node) reallocates
   the push storage and the sort/staircase scratch on every batch and
   silently reverts the zero-allocation kernel.  Deliberate per-batch
   builders carry a same-line [lint: builder-create-in-loop] waiver. *)
module Builder_create_in_loop = struct
  let name = "builder-create-in-loop"

  let severity = Finding.Error

  let doc =
    "Curve.Builder.create inside a loop, iter/fold callback or let rec \
     in a DP hot path; hoist one builder out and clear it between \
     batches"

  let path_in_hot path =
    Rule.path_in_lib path
    && List.exists
         (fun seg ->
            String.equal "core" seg || String.equal "lttree" seg
            || String.equal "ginneken" seg)
         (String.split_on_char '/' path)

  let is_builder_create = function
    | Longident.Ldot
        (Longident.Ldot (Longident.Lident "Curve", "Builder"), "create")
    | Longident.Ldot
        ( Longident.Ldot
            ( Longident.Ldot (Longident.Lident "Merlin_curves", "Curve"),
              "Builder" ),
          "create" ) ->
      true
    | _ -> false

  let is_iterish = function
    | Longident.Ldot (_, ("iter" | "iteri" | "fold" | "fold_left" | "fold_right"))
      ->
      true
    | _ -> false

  let scan ctx seen root =
    let expr self e =
      (match e.pexp_desc with
       | Pexp_ident { txt; loc } when is_builder_create txt ->
         let key =
           (loc.Location.loc_start.Lexing.pos_lnum,
            loc.Location.loc_start.Lexing.pos_cnum)
         in
         if not (Hashtbl.mem seen key) then begin
           Hashtbl.add seen key ();
           Rule.report ctx ~rule:name ~severity ~waiver:name ~loc
             "Curve.Builder.create inside a loop or recursive function; \
              hoist the builder out and clear it between batches"
         end
       | _ -> ());
      Ast_iterator.default_iterator.expr self e
    in
    let sub = { Ast_iterator.default_iterator with expr } in
    sub.expr sub root

  let hooks ctx prev =
    if not (path_in_hot ctx.Rule.filename) then prev
    else begin
      let seen = Hashtbl.create 8 in
      let scan_rec vbs =
        List.iter (fun vb -> scan ctx seen vb.pvb_expr) vbs
      in
      let with_expr =
        on_expr prev (fun e ->
            match e.pexp_desc with
            | Pexp_for (_, _, _, _, body) | Pexp_while (_, body) ->
              scan ctx seen body
            | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args)
              when is_iterish txt ->
              List.iter (fun (_, arg) -> scan ctx seen arg) args
            | Pexp_let (Asttypes.Recursive, vbs, _) -> scan_rec vbs
            | _ -> ())
      in
      let structure_item self item =
        (match item.pstr_desc with
         | Pstr_value (Asttypes.Recursive, vbs) -> scan_rec vbs
         | _ -> ());
        with_expr.Ast_iterator.structure_item self item
      in
      { with_expr with Ast_iterator.structure_item }
    end

  let files = Rule.no_files
end

let all : (module Rule.S) list =
  [ (module Poly_compare);
    (module Raising_accessor);
    (module Physical_eq);
    (module Error_prefix);
    (module Catch_all);
    (module Mli_sibling);
    (module Builder_create_in_loop) ]
