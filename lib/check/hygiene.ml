(* C10-C16 — per-unit code hygiene, on the typedtree.

   These rules look at one expression (or one unit) at a time, with no
   call graph: each flags a construct that is legal OCaml but breaks a
   project invariant.  Resolving idents to their defining path, rather
   than matching the spelling, is what makes them precise: a local
   [module H = Hashtbl] cannot hide [H.find], and [compare] is judged
   at the type it is used at, not by its name.

   Every rule's waiver token is its own name: a same-line
   [check: <rule>] comment suppresses it. *)

let poly_compare = "poly-compare"

let raising_accessor = "raising-accessor"

let physical_eq = "physical-eq"

let error_prefix = "error-prefix"

let catch_all = "catch-all"

let mli_sibling = "mli-sibling"

let builder_create_in_loop = "builder-create-in-loop"

let segments path = String.split_on_char '/' path

let path_in_lib path = List.exists (String.equal "lib") (segments path)

(* lib/core, lib/lttree and lib/ginneken: the DP hot paths. *)
let path_in_hot path =
  let rec go = function
    | "lib" :: ("core" | "lttree" | "ginneken") :: _ -> true
    | _ :: rest -> go rest
    | [] -> false
  in
  go (segments path)

(* The name of a Stdlib value an ident resolves to, through local
   module aliases: ["="] for [Stdlib.(=)], ["Hashtbl.find"] for
   [Stdlib.Hashtbl.find]. *)
let stdlib_name env p =
  match Pathx.resolve env p with
  | Some [ "Stdlib"; name ] -> Some name
  | Some [ "Stdlib"; m; name ] -> Some (m ^ "." ^ name)
  | Some _ | None -> None

(* ---------- C10 poly-compare ---------- *)

let scalar_paths =
  Predef.
    [ path_int; path_char; path_bool; path_unit; path_float; path_string;
      path_bytes; path_int32; path_int64; path_nativeint ]

(* Typedtrees keep only a summary of each typing environment; rebuilding
   it from the unit's load path lets abbreviations ([Float.t], a functor
   instance's [elt]) expand to what the compiler saw.  When the cmis
   cannot be found the type stays unexpanded, so the rule errs towards
   flagging. *)
let expand (e : Typedtree.expression) ty =
  match Envaux.env_of_only_summary e.Typedtree.exp_env with
  | env -> Ctype.expand_head env ty
  | exception (Envaux.Error _ | Persistent_env.Error _ | Cmi_format.Error _)
    ->
    ty

let is_scalar ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, [], _) -> List.exists (Path.same p) scalar_paths
  | _ -> false

let type_string ty =
  let buf = Buffer.create 64 in
  let ppf = Format.formatter_of_buffer buf in
  Format.pp_set_margin ppf 1_000;
  Format.fprintf ppf "%a%!" Printtyp.type_expr ty;
  Buffer.contents buf

(* The instantiated first-argument type of [=]/[<>]/[compare] at this
   use, when it is not a scalar; a type variable counts as
   non-scalar. *)
let non_scalar_operand (e : Typedtree.expression) =
  match Types.get_desc e.Typedtree.exp_type with
  | Types.Tarrow (_, arg, _, _) ->
    let arg = expand e arg in
    if is_scalar arg then None else Some arg
  | _ -> None

(* ---------- C11 raising-accessor ---------- *)

let raising = function
  | "Hashtbl.find" -> Some "Hashtbl.find_opt"
  | "List.hd" | "Option.get" -> Some "a pattern match"
  | "List.nth" -> Some "List.nth_opt"
  | _ -> None

(* ---------- C13 error-prefix ---------- *)

let string_constant (e : Typedtree.expression) =
  match e.Typedtree.exp_desc with
  | Typedtree.Texp_constant (Asttypes.Const_string (s, _, _)) -> Some s
  | _ -> None

(* A typed format literal is [CamlinternalFormatBasics.Format (fmt, s)]
   with the source text [s]. *)
let format_literal (e : Typedtree.expression) =
  match e.Typedtree.exp_desc with
  | Typedtree.Texp_construct
      (_, { Types.cstr_name = "Format"; _ }, [ _; lit ]) ->
    string_constant lit
  | _ -> string_constant e

(* The leading literal of a message: a direct literal, the left operand
   of [^], or the format of a sprintf-style call.  Dynamic messages
   with no visible literal are skipped. *)
let rec leading_string env (e : Typedtree.expression) =
  match e.Typedtree.exp_desc with
  | Typedtree.Texp_constant _ -> string_constant e
  | Typedtree.Texp_apply
      ( { Typedtree.exp_desc = Typedtree.Texp_ident (p, _, _); _ },
        (Asttypes.Nolabel, Some lhs) :: _ )
    when Option.equal String.equal (stdlib_name env p) (Some "^") ->
    leading_string env lhs
  | Typedtree.Texp_apply (_, args) ->
    List.find_map (fun (_, a) -> Option.bind a format_literal) args
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
            | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '\'' -> true
            | _ -> false)
         prefix

(* ---------- C14 catch-all ---------- *)

let rec catch_all_pat : type k. k Typedtree.general_pattern -> bool =
 fun p ->
  match p.Typedtree.pat_desc with
  | Typedtree.Tpat_any -> true
  | Typedtree.Tpat_alias (inner, _, _) -> catch_all_pat inner
  | Typedtree.Tpat_or (a, b, _) -> catch_all_pat a || catch_all_pat b
  | _ -> false

(* ---------- C16 builder-create-in-loop ---------- *)

let builder_create = [ "Curve"; "Builder"; "create" ]

let iterish p =
  match p with
  | Path.Pdot (_, ("iter" | "iteri" | "fold" | "fold_left" | "fold_right"))
    ->
    true
  | _ -> false

(* ---------- driver ---------- *)

let iter_exprs f =
  { Tast_iterator.default_iterator with
    expr =
      (fun sub e ->
         f e;
         Tast_iterator.default_iterator.expr sub e) }

let check_unit ~waivers ~active ~emit (u : Cmt_load.t) str =
  let env = Pathx.alias_env_of_structure str in
  let report rule (loc : Location.t) message =
    let file = loc.Location.loc_start.Lexing.pos_fname in
    let line = loc.Location.loc_start.Lexing.pos_lnum in
    if not (Waivers.waived waivers ~file ~line ~token:rule) then
      emit
        (Finding.of_location ~rule ~severity:Finding.Error ~message loc)
  in
  let source = Option.value u.Cmt_load.source ~default:"" in
  let in_lib = path_in_lib source in
  let ident (e : Typedtree.expression) p =
    let loc = e.Typedtree.exp_loc in
    match stdlib_name env p with
    | Some (("=" | "<>" | "compare") as op) when active poly_compare -> (
      match non_scalar_operand e with
      | Some ty ->
        report poly_compare loc
          (Printf.sprintf
             "polymorphic %s at non-scalar type %s; use a dedicated \
              equal/compare (e.g. Point.equal, Solution.compare_key) or a \
              pattern match"
             op (type_string ty))
      | None -> ())
    | Some (("==" | "!=") as op) when active physical_eq ->
      report physical_eq loc
        (Printf.sprintf
           "physical equality (%s); compare structurally or add a \
            same-line [check: physical-eq] waiver"
           op)
    | Some name when in_lib && active raising_accessor -> (
      match raising name with
      | Some instead ->
        report raising_accessor loc
          (Printf.sprintf "%s raises; use %s" name instead)
      | None -> ())
    | Some _ | None -> ()
  in
  let expr (e : Typedtree.expression) =
    match e.Typedtree.exp_desc with
    | Typedtree.Texp_ident (p, _, _) -> ident e p
    | Typedtree.Texp_apply
        ( { Typedtree.exp_desc = Typedtree.Texp_ident (p, _, _); _ },
          (Asttypes.Nolabel, Some arg) :: _ )
      when active error_prefix -> (
      match stdlib_name env p with
      | Some (("failwith" | "invalid_arg") as f) -> (
        match leading_string env arg with
        | Some msg when not (prefix_ok msg) ->
          report error_prefix e.Typedtree.exp_loc
            (Printf.sprintf
               "%s message %S must start with \"Module.function:\"" f msg)
        | Some _ | None -> ())
      | Some _ | None -> ())
    | Typedtree.Texp_try (_, cases) when active catch_all ->
      List.iter
        (fun (c : Typedtree.value Typedtree.case) ->
           if catch_all_pat c.Typedtree.c_lhs then
             report catch_all c.Typedtree.c_lhs.Typedtree.pat_loc
               "catch-all exception handler; match specific exceptions")
        cases
    | _ -> ()
  in
  let it = iter_exprs expr in
  it.Tast_iterator.structure it str;
  if active builder_create_in_loop && path_in_hot source then begin
    (* A create can sit under several loop forms at once; report it
       once. *)
    let seen = Hashtbl.create 8 in
    let scan root =
      let found (e : Typedtree.expression) =
        match e.Typedtree.exp_desc with
        | Typedtree.Texp_ident (p, _, _)
          when Concur.suffixed env p builder_create ->
          let loc = e.Typedtree.exp_loc in
          let start = loc.Location.loc_start.Lexing.pos_cnum in
          if not (Hashtbl.mem seen start) then begin
            Hashtbl.add seen start ();
            report builder_create_in_loop loc
              "Curve.Builder.create inside a loop or recursive function; \
               hoist the builder out and clear it between batches"
          end
        | _ -> ()
      in
      let sub = iter_exprs found in
      sub.Tast_iterator.expr sub root
    in
    let scan_rec vbs =
      List.iter
        (fun (vb : Typedtree.value_binding) -> scan vb.Typedtree.vb_expr)
        vbs
    in
    let loops =
      { (iter_exprs (fun e ->
             match e.Typedtree.exp_desc with
             | Typedtree.Texp_for (_, _, _, _, _, body)
             | Typedtree.Texp_while (_, body) ->
               scan body
             | Typedtree.Texp_apply
                 ( { Typedtree.exp_desc = Typedtree.Texp_ident (p, _, _); _ },
                   args )
               when iterish p ->
               List.iter (fun (_, arg) -> Option.iter scan arg) args
             | Typedtree.Texp_let (Asttypes.Recursive, vbs, _) -> scan_rec vbs
             | _ -> ()))
        with
        structure_item =
          (fun sub item ->
             (match item.Typedtree.str_desc with
              | Typedtree.Tstr_value (Asttypes.Recursive, vbs) -> scan_rec vbs
              | _ -> ());
             Tast_iterator.default_iterator.structure_item sub item) }
    in
    loops.Tast_iterator.structure loops str
  end

(* The load path is global compiler state: point it at this unit's
   build before its environments are rebuilt. *)
let enter_unit (u : Cmt_load.t) =
  Load_path.init ~auto_include:Load_path.no_auto_include u.Cmt_load.load_path;
  Env.reset_cache ();
  Envaux.reset_cache ()

let check ~waivers ~active (units : Cmt_load.t list) =
  let findings = ref [] in
  let emit f = findings := f :: !findings in
  List.iter
    (fun (u : Cmt_load.t) ->
       if not (Cmt_load.is_alias_unit u) then begin
         (match u.Cmt_load.impl with
          | Some str ->
            enter_unit u;
            check_unit ~waivers ~active ~emit u str
          | None -> ());
         match (u.Cmt_load.source, u.Cmt_load.impl, u.Cmt_load.intf) with
         | Some file, Some _, None
           when active mli_sibling && path_in_lib file
                && not (Waivers.waived waivers ~file ~line:1 ~token:mli_sibling)
           ->
           emit
             (Finding.make ~file ~line:1 ~col:0 ~rule:mli_sibling
                ~severity:Finding.Error "missing sibling .mli interface")
         | _ -> ()
       end)
    units;
  List.rev !findings
