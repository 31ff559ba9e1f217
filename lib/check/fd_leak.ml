(* C6 — fd-leak.

   A file descriptor minted by a Unix producer (socket/accept/openfile/
   pipe/... — or by a project function the returns-fd summary covers,
   like Server.listen_unix) must, within the binding's scope, either

   - reach [Unix.close] on the normal path with every earlier
     can-raise use protected (inside a [Fun.protect] whose [~finally]
     closes it, or inside a [try] whose handler does), or
   - escape: be stored in a record/tuple/constructor, passed to a
     non-Unix function, or returned — ownership moved, someone else
     closes.

   Uses are classified per occurrence of the bound ident: an argument
   to [Unix.close] is a close; an argument to any other [Unix.*] call
   is a borrow (it can raise, and the fd is still ours); anything else
   — constructor field, non-Unix call argument, bare tail position —
   is an escape.  A binding with no close and no escape leaks on every
   path; a borrow before the close, outside every protected span,
   leaks on that borrow's raise edge.

   Known false negatives (DESIGN.md §7): fds in refs or arrays,
   producers called in argument position ([f (Unix.socket ...)]),
   double-close and use-after-close (different bugs), and conditional
   closes ([if keep then ... else Unix.close fd]) — path-insensitive
   by design.  Deliberate ownership transfers the classifier cannot
   see are waived with [check: fd-escape]. *)

let rule = "fd-leak"

let fun_protect_suffix = [ "Fun"; "protect" ]

(* ---------- pattern idents ---------- *)

let rec value_pat_idents (p : Typedtree.pattern) =
  match p.Typedtree.pat_desc with
  | Typedtree.Tpat_var (id, _) -> [ id ]
  | Typedtree.Tpat_alias (inner, id, _) -> id :: value_pat_idents inner
  | Typedtree.Tpat_tuple ps -> List.concat_map value_pat_idents ps
  | _ -> []

(* ---------- occurrence classification ---------- *)

type uses = {
  mutable closes : int list;  (* cnums *)
  mutable borrows : (Location.t * string) list;
  mutable escapes : bool;
  mutable occ : (int * Location.t) list;  (* every occurrence *)
  mutable classified : int list;  (* cnums accounted for above *)
}

let is_ident id (e : Typedtree.expression) =
  match e.Typedtree.exp_desc with
  | Typedtree.Texp_ident (Path.Pident id', _, _) -> Ident.same id id'
  | _ -> false

let display_of env p =
  match Concur.comps_of env p with
  | Some comps -> (
    match List.rev comps with
    | b :: a :: _ -> a ^ "." ^ b
    | [ b ] -> b
    | [] -> Path.name p)
  | None -> Path.name p

(* Unix-module borrow: the component before the function name is
   "Unix" (real stdlib or a fixture stub). *)
let is_unix_call env p =
  match Concur.comps_of env p with
  | Some comps -> (
    match List.rev comps with
    | _ :: m :: _ -> String.equal m "Unix"
    | _ -> false)
  | None -> false

let start_cnum (loc : Location.t) = loc.Location.loc_start.Lexing.pos_cnum

let classify_uses env id scope =
  let u =
    { closes = []; borrows = []; escapes = false; occ = []; classified = [] }
  in
  let mark (e : Typedtree.expression) =
    u.classified <- start_cnum e.Typedtree.exp_loc :: u.classified
  in
  let escape_if_ident (e : Typedtree.expression) =
    if is_ident id e then begin
      u.escapes <- true;
      mark e
    end
  in
  let iter =
    { Tast_iterator.default_iterator with
      expr =
        (fun sub e ->
           (match e.Typedtree.exp_desc with
            | Typedtree.Texp_ident (Path.Pident id', _, _)
              when Ident.same id id' ->
              u.occ <-
                (start_cnum e.Typedtree.exp_loc, e.Typedtree.exp_loc)
                :: u.occ
            | Typedtree.Texp_apply (f, args) -> (
              match f.Typedtree.exp_desc with
              | Typedtree.Texp_ident (p, _, _) ->
                List.iter
                  (fun (_, arg) ->
                     match arg with
                     | Some arg when is_ident id arg ->
                       mark arg;
                       if Concur.suffixed env p Concur.close_suffix then
                         u.closes <-
                           start_cnum arg.Typedtree.exp_loc :: u.closes
                       else if is_unix_call env p then
                         u.borrows <-
                           (e.Typedtree.exp_loc, display_of env p)
                           :: u.borrows
                       else u.escapes <- true
                     | _ -> ())
                  args
              | _ -> ())
            | Typedtree.Texp_record { fields; _ } ->
              Array.iter
                (fun (_, def) ->
                   match def with
                   | Typedtree.Overridden (_, e) -> escape_if_ident e
                   | Typedtree.Kept _ -> ())
                fields
            | Typedtree.Texp_tuple es -> List.iter escape_if_ident es
            | Typedtree.Texp_construct (_, _, es) ->
              List.iter escape_if_ident es
            | Typedtree.Texp_variant (_, eo) ->
              Option.iter escape_if_ident eo
            | Typedtree.Texp_array es -> List.iter escape_if_ident es
            | Typedtree.Texp_setfield (_, _, _, rhs) -> escape_if_ident rhs
            | Typedtree.Texp_let (_, vbs, _) ->
              (* [let alias = fd in ...]: tracking stops, assume moved *)
              List.iter
                (fun vb -> escape_if_ident vb.Typedtree.vb_expr)
                vbs
            | _ -> ());
           Tast_iterator.default_iterator.expr sub e) }
  in
  iter.Tast_iterator.expr iter scope;
  (* Occurrences nothing above accounted for are bare uses: tail
     position, comparison operands through aliases, ... — ownership
     has left this function. *)
  let bare =
    List.exists (fun (c, _) -> not (List.mem c u.classified)) u.occ
  in
  if bare then u.escapes <- true;
  u

(* ---------- protected spans ---------- *)

let closes_fd env id root =
  let found = ref false in
  let iter =
    { Tast_iterator.default_iterator with
      expr =
        (fun sub e ->
           (match e.Typedtree.exp_desc with
            | Typedtree.Texp_apply
                ({ Typedtree.exp_desc = Typedtree.Texp_ident (p, _, _); _ },
                 args)
              when Concur.suffixed env p Concur.close_suffix ->
              if
                List.exists
                  (fun (_, a) ->
                     match a with Some a -> is_ident id a | None -> false)
                  args
              then found := true
            | _ -> ());
           Tast_iterator.default_iterator.expr sub e) }
  in
  iter.Tast_iterator.expr iter root;
  !found

(* Character spans inside which a raise cannot leak [id]: a [try]
   whose handler closes it, or a [Fun.protect] whose [~finally]
   closes it. *)
let guarded_spans env id scope =
  let spans = ref [] in
  let add (loc : Location.t) =
    spans :=
      ( loc.Location.loc_start.Lexing.pos_cnum,
        loc.Location.loc_end.Lexing.pos_cnum )
      :: !spans
  in
  let iter =
    { Tast_iterator.default_iterator with
      expr =
        (fun sub e ->
           (match e.Typedtree.exp_desc with
            | Typedtree.Texp_try (_, handlers) ->
              if
                List.exists
                  (fun c -> closes_fd env id c.Typedtree.c_rhs)
                  handlers
              then add e.Typedtree.exp_loc
            | Typedtree.Texp_apply
                ({ Typedtree.exp_desc = Typedtree.Texp_ident (p, _, _); _ },
                 args)
              when Concur.suffixed env p fun_protect_suffix -> (
              match
                List.find_opt
                  (fun (lbl, _) ->
                     match lbl with
                     | Asttypes.Labelled "finally" -> true
                     | _ -> false)
                  args
              with
              | Some (_, Some finally) when closes_fd env id finally ->
                add e.Typedtree.exp_loc
              | _ -> ())
            | _ -> ());
           Tast_iterator.default_iterator.expr sub e) }
  in
  iter.Tast_iterator.expr iter scope;
  !spans

let in_span spans cnum =
  List.exists (fun (s, e) -> cnum >= s && cnum <= e) spans

(* ---------- bindings ---------- *)

type binding = {
  ids : Ident.t list;
  scope : Typedtree.expression;
  producer : string;
  bind_loc : Location.t;
}

let bindings_of project fn =
  let out = ref [] in
  let iter =
    { Tast_iterator.default_iterator with
      expr =
        (fun sub e ->
           (match e.Typedtree.exp_desc with
            | Typedtree.Texp_let (_, vbs, body) ->
              List.iter
                (fun vb ->
                   match
                     Concur.producer_of project fn vb.Typedtree.vb_expr
                   with
                   | Some producer ->
                     out :=
                       { ids = value_pat_idents vb.Typedtree.vb_pat;
                         scope = body;
                         producer;
                         bind_loc = vb.Typedtree.vb_pat.Typedtree.pat_loc }
                       :: !out
                   | None -> ())
                vbs
            | Typedtree.Texp_match (scrut, cases, _) -> (
              match Concur.producer_of project fn scrut with
              | None -> ()
              | Some producer ->
                List.iter
                  (fun c ->
                     match c.Typedtree.c_lhs.Typedtree.pat_desc with
                     | Typedtree.Tpat_value arg ->
                       let pat =
                         (arg :> Typedtree.value Typedtree.general_pattern)
                       in
                       out :=
                         { ids = value_pat_idents pat;
                           scope = c.Typedtree.c_rhs;
                           producer;
                           bind_loc = pat.Typedtree.pat_loc }
                         :: !out
                     | _ -> ())
                  cases)
            | _ -> ());
           Tast_iterator.default_iterator.expr sub e) }
  in
  iter.Tast_iterator.expr iter fn.Concur.fn_expr;
  List.rev !out

(* ---------- rule ---------- *)

let finding ~waivers (loc : Location.t) message =
  let file = loc.Location.loc_start.Lexing.pos_fname in
  let line = loc.Location.loc_start.Lexing.pos_lnum in
  let col =
    loc.Location.loc_start.Lexing.pos_cnum
    - loc.Location.loc_start.Lexing.pos_bol
  in
  if Waivers.waived waivers ~file ~line ~token:"fd-escape" then None
  else
    Some (Finding.make ~file ~line ~col ~rule ~severity:Finding.Error message)

let check_binding ~waivers env b =
  match b.ids with
  | [] ->
    (* The producer result was never even bound to a name. *)
    Option.to_list
      (finding ~waivers b.bind_loc
         (Printf.sprintf
            "%s result is dropped without reaching Unix.close; the \
             descriptor leaks on every path (waive: fd-escape)"
            b.producer))
  | ids ->
    List.concat_map
      (fun id ->
         let u = classify_uses env id b.scope in
         if u.escapes then []
         else if List.length u.closes = 0 then
           Option.to_list
             (finding ~waivers b.bind_loc
                (Printf.sprintf
                   "%s binds %s but no path reaches Unix.close and it \
                    never escapes this function; the descriptor leaks \
                    (waive: fd-escape)"
                   b.producer (Ident.name id)))
         else begin
           let last_close = List.fold_left max 0 u.closes in
           let spans = guarded_spans env id b.scope in
           List.filter_map
             (fun (loc, callee) ->
                let c = start_cnum loc in
                if c < last_close && not (in_span spans c) then
                  finding ~waivers loc
                    (Printf.sprintf
                       "%s can raise before %s reaches Unix.close; the \
                        descriptor from %s leaks on that path — close in \
                        a Fun.protect ~finally or an exception handler \
                        (waive: fd-escape)"
                       callee (Ident.name id) b.producer)
                else None)
             (List.rev u.borrows)
         end)
      ids

let check ~waivers project =
  List.concat_map
    (fun fn ->
       List.concat_map
         (check_binding ~waivers fn.Concur.fn_env)
         (bindings_of project fn))
    (Concur.fns project)
