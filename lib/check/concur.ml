(* Shared concurrency machinery for the C4-C6 rules: a per-project
   inventory of top-level functions with, for each one, the lock
   regions it opens, the acquisition/blocking/call sites inside it and
   three interprocedural summaries — the set of locks a call into it
   may acquire (C4), the blocking primitive a call into it may reach
   (C5) and whether it returns a fresh file descriptor (C6).

   Lock identity.  A lock must get the same name wherever it is
   touched, or the project-wide lock graph falls apart.  Field locks
   ([t.lock], [pool.sm], [fut.fm]) are named from the *record type*
   of the label, which is spelled identically at every use site:
   type [t] of module [M] yields [M.label] (the conventional case,
   e.g. [Pool.sm], [Lru.lock], [Server.lock]); any other type name is
   kept ([Pool.future.fm]).  Module-level mutexes named by ident
   resolve to their last two path components; a plain local ident is
   qualified by its unit ([Unit.name]).  Unnameable mutexes (function
   parameters, complex expressions) yield no site at all — a summary
   miss, never a wrong edge.

   Held regions.  Two forms, both compared by character span within
   one function: the closure argument of [Mutex.protect m f] (or of a
   protect-like helper, below), and linear [Mutex.lock]/[Mutex.unlock]
   pairs replayed in source order *per closure level* — an unlock
   inside a nested [fun] does not close its parent's region, because
   it runs at a different time (this is exactly the [Fun.protect
   ~finally:(fun () -> Mutex.unlock m)] shape).  A lock never released
   at its own level holds to the end of that level.

   Protect-like helpers.  A function whose body locks one parameter
   and runs another (lib/exec's [locked m f]) acts as Mutex.protect at
   its call sites: the matching argument positions are detected once
   per function and call sites get an acquisition plus a region over
   the literal closure argument.

   Known false negatives (DESIGN.md §7): locks reached through
   functors or first-class modules, closures that escape a region and
   run later (their sites are attributed to the defining region), and
   calls through function-typed variables. *)

module SS = Set.Make (String)

(* ------------------------------------------------------------------ *)
(* Tables                                                              *)
(* ------------------------------------------------------------------ *)

let lock_suffix = [ "Mutex"; "lock" ]

let unlock_suffix = [ "Mutex"; "unlock" ]

let protect_suffix = [ "Mutex"; "protect" ]

let condition_wait_suffix = [ "Condition"; "wait" ]

(* (path suffix, display name): calls that can block indefinitely.
   Extensible in spirit via the blocking-ok waiver rather than
   per-project configuration — a deliberate blocking call under a lock
   carries its justification in the source line. *)
let blocking_table =
  [ ([ "Unix"; "accept" ], "Unix.accept");
    ([ "Unix"; "connect" ], "Unix.connect");
    ([ "Unix"; "read" ], "Unix.read");
    ([ "Unix"; "write" ], "Unix.write");
    ([ "Unix"; "select" ], "Unix.select");
    ([ "Unix"; "sleep" ], "Unix.sleep");
    ([ "Unix"; "sleepf" ], "Unix.sleepf");
    ([ "Unix"; "recv" ], "Unix.recv");
    ([ "Unix"; "send" ], "Unix.send");
    ([ "Unix"; "waitpid" ], "Unix.waitpid");
    ([ "Thread"; "join" ], "Thread.join");
    ([ "Thread"; "delay" ], "Thread.delay");
    ([ "Domain"; "join" ], "Domain.join");
    ([ "Pool"; "await" ], "Pool.await");
    ([ "Pool"; "await_timeout" ], "Pool.await_timeout");
    ([ "Pool"; "run_timeout" ], "Pool.run_timeout");
    ([ "Pool"; "map" ], "Pool.map");
    ([ "Pool"; "shutdown" ], "Pool.shutdown");
    ([ "Pool"; "with_pool" ], "Pool.with_pool");
    ([ "Scheduler"; "schedule" ], "Scheduler.schedule");
    ([ "Server"; "wait" ], "Server.wait");
    ([ "Server"; "stop" ], "Server.stop");
    ([ "Client"; "call" ], "Client.call");
    ([ "Wire"; "read_frame" ], "Wire.read_frame");
    ([ "Wire"; "write_frame" ], "Wire.write_frame") ]

(* (path suffix, display name): calls whose result is a fresh fd the
   caller must close or hand off. *)
let producer_table =
  [ ([ "Unix"; "socket" ], "Unix.socket");
    ([ "Unix"; "accept" ], "Unix.accept");
    ([ "Unix"; "openfile" ], "Unix.openfile");
    ([ "Unix"; "pipe" ], "Unix.pipe");
    ([ "Unix"; "socketpair" ], "Unix.socketpair");
    ([ "Unix"; "dup" ], "Unix.dup") ]

let close_suffix = [ "Unix"; "close" ]

(* ------------------------------------------------------------------ *)
(* Types                                                               *)
(* ------------------------------------------------------------------ *)

type acquire = {
  a_lock : string;
  a_loc : Location.t;
  a_via : string;  (** "Mutex.lock", "Mutex.protect" or the helper name *)
}

type region = {
  g_lock : string;
  g_file : string;
  g_open : int;  (** cnum of the acquisition that opened it (self-test) *)
  g_start : int;
  g_end : int;
}

type bsite = {
  s_prim : string;
  s_loc : Location.t;
  s_wait_on : string option;  (** [Condition.wait]'s own mutex *)
}

type fn = {
  fn_unit : string;  (** display unit, last path component: "Pool" *)
  fn_unit_name : string;  (** raw compilation unit name, for ident keys *)
  fn_name : string;
  fn_key : string;  (** normalized dotted path, for cross-unit calls *)
  fn_params : (Ident.t * bool) list;  (** binder, has function type *)
  fn_expr : Typedtree.expression;
  fn_loc : Location.t;
  fn_env : Pathx.alias_env;
  mutable fn_protect_like : (int * int) option;
      (** (mutex arg position, closure arg position) *)
  mutable fn_acquires_sites : acquire list;
  mutable fn_regions : region list;
  mutable fn_blocking : bsite list;
  mutable fn_calls : (fn * Location.t) list;
  mutable fn_acquires : SS.t;  (** fixpoint over the call graph *)
  mutable fn_blocks : bsite option;
      (** a blocking site some call chain from here reaches (fixpoint
          over the call graph) *)
  mutable fn_returns_fd : bool;
}

type project = {
  fns : fn list;
  by_ident : (string, fn) Hashtbl.t;  (** "unit/ident-unique-name" *)
  by_key : (string, fn) Hashtbl.t;
}

let fns t = t.fns

(* ------------------------------------------------------------------ *)
(* Small helpers                                                       *)
(* ------------------------------------------------------------------ *)

let comps_of env p =
  match Pathx.resolve env p with
  | Some comps -> Some comps
  | None -> Option.map Pathx.normalize (Pathx.flatten p)

let suffixed env p suffix =
  match comps_of env p with
  | Some comps -> Pathx.has_suffix ~suffix comps
  | None -> false

let app_head (e : Typedtree.expression) =
  match e.Typedtree.exp_desc with
  | Typedtree.Texp_apply (f, args) -> (
    match f.Typedtree.exp_desc with
    | Typedtree.Texp_ident (p, _, _) -> Some (p, args)
    | _ -> None)
  | _ -> None

(* The [i]-th positional (unlabelled, evaluated) argument. *)
let pos_arg args i =
  let rec go n = function
    | [] -> None
    | (Asttypes.Nolabel, Some e) :: rest ->
      if n = i then Some (e : Typedtree.expression) else go (n + 1) rest
    | _ :: rest -> go n rest
  in
  go 0 args

let start_cnum (loc : Location.t) = loc.Location.loc_start.Lexing.pos_cnum

let end_cnum (loc : Location.t) = loc.Location.loc_end.Lexing.pos_cnum

let loc_file (loc : Location.t) = loc.Location.loc_start.Lexing.pos_fname

let last2 comps =
  match List.rev comps with
  | b :: a :: _ -> Some (a ^ "." ^ b)
  | [ b ] -> Some b
  | [] -> None

(* Stable project-wide name of a mutex expression; [None] when the
   expression cannot be named (see header). *)
let lock_name ~unit_last env (e : Typedtree.expression) =
  match e.Typedtree.exp_desc with
  | Typedtree.Texp_field (_, _, lbl) -> (
    let field = lbl.Types.lbl_name in
    match Types.get_desc lbl.Types.lbl_res with
    | Types.Tconstr (p, _, _) -> (
      let comps =
        match Pathx.flatten p with
        | Some raw -> Pathx.normalize raw
        | None -> []
      in
      match List.rev comps with
      | tname :: modc :: _ ->
        Some
          (if String.equal tname "t" then modc ^ "." ^ field
           else modc ^ "." ^ tname ^ "." ^ field)
      | [ tname ] ->
        Some
          (if String.equal tname "t" then unit_last ^ "." ^ field
           else unit_last ^ "." ^ tname ^ "." ^ field)
      | [] -> Some (unit_last ^ "." ^ field))
    | _ -> Some (unit_last ^ "." ^ field))
  | Typedtree.Texp_ident (p, _, _) -> (
    match Pathx.resolve env p with
    | Some comps -> last2 comps
    | None -> (
      match p with
      | Path.Pident id -> Some (unit_last ^ "." ^ Ident.name id)
      | _ -> None))
  | _ -> None

let ident_occurs id root =
  let found = ref false in
  let iter =
    { Tast_iterator.default_iterator with
      expr =
        (fun sub e ->
           (match e.Typedtree.exp_desc with
            | Typedtree.Texp_ident (Path.Pident id', _, _)
              when Ident.same id id' ->
              found := true
            | _ -> ());
           Tast_iterator.default_iterator.expr sub e) }
  in
  iter.Tast_iterator.expr iter root;
  !found

(* ------------------------------------------------------------------ *)
(* Function inventory                                                  *)
(* ------------------------------------------------------------------ *)

let is_arrow ty =
  match Types.get_desc ty with Types.Tarrow _ -> true | _ -> false

(* Curried parameter chain of a function expression: one ident per
   single-case [Texp_function] layer. *)
let rec peel_params acc (e : Typedtree.expression) =
  match e.Typedtree.exp_desc with
  | Typedtree.Texp_function { param; cases = [ c ]; _ } ->
    let id =
      match c.Typedtree.c_lhs.Typedtree.pat_desc with
      | Typedtree.Tpat_var (id, _) -> id
      | Typedtree.Tpat_alias (_, id, _) -> id
      | _ -> param
    in
    let entry = (id, is_arrow c.Typedtree.c_lhs.Typedtree.pat_type) in
    peel_params (entry :: acc) c.Typedtree.c_rhs
  | _ -> (List.rev acc, e)

let unit_last name =
  match List.rev (Pathx.split_dune name) with
  | last :: _ -> last
  | [] -> name

let functions_of_unit (u : Cmt_load.t) =
  match u.Cmt_load.impl with
  | None -> []
  | Some str ->
    let env = Pathx.alias_env_of_structure str in
    let ulast = unit_last u.Cmt_load.name in
    let ucomps = Pathx.normalize (Pathx.split_dune u.Cmt_load.name) in
    List.concat_map
      (fun item ->
         match item.Typedtree.str_desc with
         | Typedtree.Tstr_value (_, vbs) ->
           List.filter_map
             (fun vb ->
                match
                  ( vb.Typedtree.vb_pat.Typedtree.pat_desc,
                    vb.Typedtree.vb_expr.Typedtree.exp_desc )
                with
                | Typedtree.Tpat_var (id, _), Typedtree.Texp_function _ ->
                  let params, _ = peel_params [] vb.Typedtree.vb_expr in
                  Some
                    ( id,
                      { fn_unit = ulast;
                        fn_unit_name = u.Cmt_load.name;
                        fn_name = Ident.name id;
                        fn_key =
                          Pathx.to_string (ucomps @ [ Ident.name id ]);
                        fn_params = params;
                        fn_expr = vb.Typedtree.vb_expr;
                        fn_loc = vb.Typedtree.vb_loc;
                        fn_env = env;
                        fn_protect_like = None;
                        fn_acquires_sites = [];
                        fn_regions = [];
                        fn_blocking = [];
                        fn_calls = [];
                        fn_acquires = SS.empty;
                        fn_blocks = None;
                        fn_returns_fd = false } )
                | _ -> None)
             vbs
         | _ -> [])
      str.Typedtree.str_items

(* ------------------------------------------------------------------ *)
(* Protect-like helpers                                                *)
(* ------------------------------------------------------------------ *)

(* [fn] acts as Mutex.protect when its body locks one parameter and
   mentions another, function-typed one (which it runs under the
   lock — lib/exec's [locked m f] is the shape in the wild). *)
let detect_protect_like fn =
  let locks_param id =
    let found = ref false in
    let iter =
      { Tast_iterator.default_iterator with
        expr =
          (fun sub e ->
             (match app_head e with
              | Some (p, args)
                when suffixed fn.fn_env p lock_suffix
                     || suffixed fn.fn_env p protect_suffix -> (
                match pos_arg args 0 with
                | Some
                    { Typedtree.exp_desc =
                        Typedtree.Texp_ident (Path.Pident id', _, _);
                      _ }
                  when Ident.same id id' ->
                  found := true
                | _ -> ())
              | _ -> ());
             Tast_iterator.default_iterator.expr sub e) }
    in
    iter.Tast_iterator.expr iter fn.fn_expr;
    !found
  in
  let indexed = List.mapi (fun i p -> (i, p)) fn.fn_params in
  match
    List.find_opt (fun (_, (id, _)) -> locks_param id) indexed
  with
  | None -> ()
  | Some (mi, _) -> (
    match
      List.find_opt
        (fun (i, (id, arrow)) ->
           i <> mi && arrow && ident_occurs id fn.fn_expr)
        indexed
    with
    | None -> ()
    | Some (ci, _) -> fn.fn_protect_like <- Some (mi, ci))

(* ------------------------------------------------------------------ *)
(* Per-level traversal                                                 *)
(* ------------------------------------------------------------------ *)

(* Calls [f root level_exprs] for each closure level of [top]: the
   function body and every nested function body, each with the list of
   expressions at that level only (no descent into deeper functions —
   their code runs at a different time). *)
let iter_levels f top =
  let pending = Queue.create () in
  Queue.push top pending;
  while not (Queue.is_empty pending) do
    let root = Queue.pop pending in
    let exprs = ref [] in
    let iter =
      { Tast_iterator.default_iterator with
        expr =
          (fun sub e ->
             exprs := e :: !exprs;
             match e.Typedtree.exp_desc with
             | Typedtree.Texp_function { cases; _ } ->
               List.iter
                 (fun c -> Queue.push c.Typedtree.c_rhs pending)
                 cases
             | _ -> Tast_iterator.default_iterator.expr sub e) }
    in
    iter.Tast_iterator.expr iter root;
    f root (List.rev !exprs)
  done

(* ------------------------------------------------------------------ *)
(* Site extraction                                                     *)
(* ------------------------------------------------------------------ *)

let region_of_closure ~lock ~open_loc (closure : Typedtree.expression) =
  let loc = closure.Typedtree.exp_loc in
  { g_lock = lock;
    g_file = loc_file loc;
    g_open = start_cnum open_loc;
    g_start = start_cnum loc;
    g_end = end_cnum loc }

(* One pass over [fn]: acquisition sites, protect regions, linear
   lock/unlock spans, blocking sites and resolved calls.  [resolve]
   maps a reference path to a project function (used both for call
   edges and to expand protect-like helpers). *)
let extract_sites resolve fn =
  let env = fn.fn_env and ulast = fn.fn_unit in
  (* A mutex that is one of [fn]'s own parameters has no stable name —
     the caller decides which lock it is.  Protect-like expansion names
     the actual argument at each call site instead; naming the param
     here would mint a phantom lock shared by every caller. *)
  let is_param id = List.exists (fun (p, _) -> Ident.same p id) fn.fn_params in
  let name_of (e : Typedtree.expression) =
    match e.Typedtree.exp_desc with
    | Typedtree.Texp_ident (Path.Pident id, _, _) when is_param id -> None
    | _ -> lock_name ~unit_last:ulast env e
  in
  let acquires = ref [] and regions = ref [] in
  let blocking = ref [] and calls = ref [] in
  let add_acquire lock loc via =
    acquires := { a_lock = lock; a_loc = loc; a_via = via } :: !acquires
  in
  let classify_level root exprs =
    (* (cnum, loc, `Lock name | `Unlock name) in source order *)
    let events = ref [] in
    List.iter
      (fun (e : Typedtree.expression) ->
         let loc = e.Typedtree.exp_loc in
         match app_head e with
         | None -> ()
         | Some (p, args) ->
           let arg_name i = Option.bind (pos_arg args i) name_of in
           if suffixed env p lock_suffix then (
             match arg_name 0 with
             | Some lock ->
               add_acquire lock loc "Mutex.lock";
               events := (start_cnum loc, loc, `Lock lock) :: !events
             | None -> ())
           else if suffixed env p unlock_suffix then (
             match arg_name 0 with
             | Some lock ->
               events := (start_cnum loc, loc, `Unlock lock) :: !events
             | None -> ())
           else if suffixed env p protect_suffix then (
             match arg_name 0 with
             | None -> ()
             | Some lock ->
               add_acquire lock loc "Mutex.protect";
               Option.iter
                 (fun closure ->
                    regions :=
                      region_of_closure ~lock ~open_loc:loc closure
                      :: !regions)
                 (pos_arg args 1))
           else begin
             if suffixed env p condition_wait_suffix then
               blocking :=
                 { s_prim = "Condition.wait";
                   s_loc = loc;
                   s_wait_on = arg_name 1 }
                 :: !blocking
             else (
               match
                 List.find_opt
                   (fun (suffix, _) -> suffixed env p suffix)
                   blocking_table
               with
               | Some (_, display) ->
                 blocking :=
                   { s_prim = display; s_loc = loc; s_wait_on = None }
                   :: !blocking
               | None -> ());
             match resolve fn p with
             | None -> ()
             | Some callee ->
               calls := (callee, loc) :: !calls;
               (match callee.fn_protect_like with
                | None -> ()
                | Some (mi, ci) -> (
                  match Option.bind (pos_arg args mi) name_of with
                  | None -> ()
                  | Some lock ->
                    let via = callee.fn_unit ^ "." ^ callee.fn_name in
                    add_acquire lock loc via;
                    match pos_arg args ci with
                    | Some
                        ({ Typedtree.exp_desc = Typedtree.Texp_function _;
                           _ } as closure) ->
                      regions :=
                        region_of_closure ~lock ~open_loc:loc closure
                        :: !regions
                    | _ -> ()))
           end)
      exprs;
    (* Replay this level's lock/unlock events in source order. *)
    let level_end =
      List.fold_left
        (fun acc (e : Typedtree.expression) ->
           max acc (end_cnum e.Typedtree.exp_loc))
        (end_cnum root.Typedtree.exp_loc)
        exprs
    in
    let events =
      List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b) !events
    in
    let open_spans = ref [] in
    let close lock cnum =
      match List.assoc_opt lock !open_spans with
      | None -> ()  (* unlock of something this level never locked *)
      | Some (opened, file) ->
        open_spans := List.remove_assoc lock !open_spans;
        regions :=
          { g_lock = lock;
            g_file = file;
            g_open = opened;
            g_start = opened;
            g_end = cnum }
          :: !regions
    in
    List.iter
      (fun (cnum, loc, ev) ->
         match ev with
         | `Lock lock ->
           if not (List.mem_assoc lock !open_spans) then
             open_spans := (lock, (cnum, loc_file loc)) :: !open_spans
         | `Unlock lock -> close lock cnum)
      events;
    List.iter
      (fun (lock, (opened, file)) ->
         regions :=
           { g_lock = lock;
             g_file = file;
             g_open = opened;
             g_start = opened;
             g_end = level_end }
           :: !regions)
      !open_spans
  in
  iter_levels classify_level fn.fn_expr;
  fn.fn_acquires_sites <- List.rev !acquires;
  fn.fn_regions <- !regions;
  fn.fn_blocking <- List.rev !blocking;
  fn.fn_calls <- List.rev !calls

(* Locks held at [loc] inside [fn]: regions containing its start,
   except the one this very site opened. *)
let held_at fn (loc : Location.t) =
  let file = loc_file loc and cnum = start_cnum loc in
  List.sort_uniq String.compare
    (List.filter_map
       (fun r ->
          if
            String.equal r.g_file file
            && cnum >= r.g_start && cnum <= r.g_end && cnum <> r.g_open
          then Some r.g_lock
          else None)
       fn.fn_regions)

(* ------------------------------------------------------------------ *)
(* Call resolution and fixpoints                                       *)
(* ------------------------------------------------------------------ *)

let ident_key unit_name id = unit_name ^ "/" ^ Ident.unique_name id

let resolve_ref project ~unit_name env p =
  let by_local () =
    match p with
    | Path.Pident id when not (Ident.global id) ->
      Hashtbl.find_opt project.by_ident (ident_key unit_name id)
    | _ -> None
  in
  match by_local () with
  | Some _ as hit -> hit
  | None -> (
    match Pathx.resolve env p with
    | Some comps -> Hashtbl.find_opt project.by_key (Pathx.to_string comps)
    | None -> None)

let resolve_call project fn p =
  resolve_ref project ~unit_name:fn.fn_unit_name fn.fn_env p

let acquires_fixpoint fns =
  let direct fn =
    List.fold_left
      (fun acc a -> SS.add a.a_lock acc)
      SS.empty fn.fn_acquires_sites
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun fn ->
         let s =
           List.fold_left
             (fun acc (callee, _) -> SS.union acc callee.fn_acquires)
             (direct fn) fn.fn_calls
         in
         if not (SS.equal s fn.fn_acquires) then begin
           fn.fn_acquires <- s;
           changed := true
         end)
      fns
  done

(* A blocking site a call into [fn] may reach: one of [fn]'s own,
   preferring a primitive that blocks whatever lock is held over a
   [Condition.wait], which only blocks some; else the one the first
   callee that reaches a site reaches.  A call to a project function
   on the blocking table is already a site of [fn]'s own. *)
let blocks_fixpoint fns =
  let is_wait s = String.equal s.s_prim "Condition.wait" in
  List.iter
    (fun fn ->
       fn.fn_blocks <-
         (match List.find_opt (fun s -> not (is_wait s)) fn.fn_blocking with
          | Some _ as site -> site
          | None -> List.nth_opt fn.fn_blocking 0))
    fns;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun fn ->
         if Option.is_none fn.fn_blocks then
           match
             List.find_map (fun (callee, _) -> callee.fn_blocks) fn.fn_calls
           with
           | Some _ as site ->
             fn.fn_blocks <- site;
             changed := true
           | None -> ())
      fns
  done

(* Does this application produce a fresh fd?  Either a known Unix
   producer or a call to a project function summarized as returning
   one. *)
let producer_of project fn (e : Typedtree.expression) =
  match app_head e with
  | None -> None
  | Some (p, _) -> (
    match
      List.find_opt
        (fun (suffix, _) -> suffixed fn.fn_env p suffix)
        producer_table
    with
    | Some (_, display) -> Some display
    | None -> (
      match resolve_call project fn p with
      | Some callee when callee.fn_returns_fd ->
        Some (callee.fn_unit ^ "." ^ callee.fn_name)
      | _ -> None))

(* Tail positions of [fn]'s body that return a producer result, either
   directly or through a let-bound ident. *)
let tail_returns_fd project fn =
  let _, body = peel_params [] fn.fn_expr in
  let rec go bound (e : Typedtree.expression) =
    match e.Typedtree.exp_desc with
    | Typedtree.Texp_let (_, vbs, rest) ->
      let bound =
        List.fold_left
          (fun bound vb ->
             match vb.Typedtree.vb_pat.Typedtree.pat_desc with
             | Typedtree.Tpat_var (id, _)
               when Option.is_some
                      (producer_of project fn vb.Typedtree.vb_expr) ->
               id :: bound
             | _ -> bound)
          bound vbs
      in
      go bound rest
    | Typedtree.Texp_sequence (_, e2) -> go bound e2
    | Typedtree.Texp_ifthenelse (_, e1, e2) ->
      go bound e1 || (match e2 with Some e2 -> go bound e2 | None -> false)
    | Typedtree.Texp_match (_, cases, _) ->
      List.exists (fun c -> go bound c.Typedtree.c_rhs) cases
    | Typedtree.Texp_ident (Path.Pident id, _, _) ->
      List.exists (Ident.same id) bound
    | _ -> Option.is_some (producer_of project fn e)
  in
  go [] body

let returns_fd_fixpoint project =
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun fn ->
         if (not fn.fn_returns_fd) && tail_returns_fd project fn then begin
           fn.fn_returns_fd <- true;
           changed := true
         end)
      project.fns
  done

(* ------------------------------------------------------------------ *)
(* Build                                                               *)
(* ------------------------------------------------------------------ *)

let build (units : Cmt_load.t list) =
  let with_ids = List.concat_map functions_of_unit units in
  let fns = List.map snd with_ids in
  let project =
    { fns;
      by_ident = Hashtbl.create 128;
      by_key = Hashtbl.create 128 }
  in
  List.iter
    (fun (id, fn) ->
       Hashtbl.replace project.by_ident (ident_key fn.fn_unit_name id) fn;
       Hashtbl.replace project.by_key fn.fn_key fn)
    with_ids;
  List.iter detect_protect_like fns;
  let resolve fn p = resolve_call project fn p in
  List.iter (extract_sites resolve) fns;
  acquires_fixpoint fns;
  blocks_fixpoint fns;
  returns_fd_fixpoint project;
  project

(* ------------------------------------------------------------------ *)
(* Lock-graph edges (C4)                                               *)
(* ------------------------------------------------------------------ *)

type edge = {
  e_held : string;
  e_lock : string;
  e_loc : Location.t;
  e_via : string;
}

let edges project =
  List.concat_map
    (fun fn ->
       let from_acquires =
         List.concat_map
           (fun a ->
              List.map
                (fun held ->
                   { e_held = held;
                     e_lock = a.a_lock;
                     e_loc = a.a_loc;
                     e_via = a.a_via })
                (held_at fn a.a_loc))
           fn.fn_acquires_sites
       in
       let from_calls =
         List.concat_map
           (fun (callee, loc) ->
              match held_at fn loc with
              | [] -> []
              | held ->
                let via =
                  "call to " ^ callee.fn_unit ^ "." ^ callee.fn_name
                in
                List.concat_map
                  (fun h ->
                     List.map
                       (fun lock ->
                          { e_held = h;
                            e_lock = lock;
                            e_loc = loc;
                            e_via = via })
                       (SS.elements callee.fn_acquires))
                  held)
           fn.fn_calls
       in
       from_acquires @ from_calls)
    project.fns

(* ------------------------------------------------------------------ *)
(* Blocking sites (C5)                                                 *)
(* ------------------------------------------------------------------ *)

type blocking_site = {
  b_prim : string;
  b_loc : Location.t;
  b_held : string list;
  b_wait_on : string option;
  b_via : string option;
}

let same_site (a : Location.t) (b : Location.t) =
  String.equal (loc_file a) (loc_file b) && start_cnum a = start_cnum b

(* Direct sites, then calls to project functions whose summary reaches
   a blocking primitive.  A call that is itself a direct site (a
   blocking-table entry the project defines, such as [Pool.await]) is
   reported once, as the direct site. *)
let blocking_sites project =
  List.concat_map
    (fun fn ->
       let direct =
         List.filter_map
           (fun s ->
              match held_at fn s.s_loc with
              | [] -> None
              | held ->
                Some
                  { b_prim = s.s_prim;
                    b_loc = s.s_loc;
                    b_held = held;
                    b_wait_on = s.s_wait_on;
                    b_via = None })
           fn.fn_blocking
       in
       let via_calls =
         List.filter_map
           (fun (callee, loc) ->
              match callee.fn_blocks with
              | None -> None
              | Some _
                when List.exists (fun s -> same_site s.s_loc loc) fn.fn_blocking
                -> None
              | Some s -> (
                match held_at fn loc with
                | [] -> None
                | held ->
                  Some
                    { b_prim = s.s_prim;
                      b_loc = loc;
                      b_held = held;
                      b_wait_on = s.s_wait_on;
                      b_via = Some (callee.fn_unit ^ "." ^ callee.fn_name) }))
           fn.fn_calls
       in
       direct @ via_calls)
    project.fns
