(* C3 — dead exports.

   A value exported by a library .mli but never referenced from any
   other compilation unit is API surface nobody pays for: it cannot be
   renamed, its behavior is frozen, and warn-error keeps its
   implementation alive.  The rule builds the whole-project reference
   set from every typedtree (paths in cmts are fully resolved, so
   [open]ed references still count) and reports unreferenced
   [Tsig_value] exports.

   Entry-point units (bin/bench/test/examples) are reference-graph
   roots, never targets; dune's generated alias units are skipped;
   names starting with [_] are deliberate keep-alives; a same-line
   [check: dead-export] waiver in the .mli suppresses one export. *)

let rule = "dead-export"

(* The reference set: (compilation unit, exported member) pairs seen
   anywhere outside the unit itself.  A normalized reference
   [Merlin_exec; Pool; submit] registers both ([Merlin_exec], [Pool])
   and ([Merlin_exec__Pool], [submit]) so exports of alias-reexported
   units are found through either spelling. *)
type uses = (string * string, unit) Hashtbl.t

let record_use (uses : uses) ~unit_names ~from comps =
  let arr = Array.of_list comps in
  let n = Array.length arr in
  let buf = Buffer.create 32 in
  for k = 0 to n - 2 do
    if k > 0 then Buffer.add_string buf "__";
    Buffer.add_string buf arr.(k);
    let uname = Buffer.contents buf in
    if Hashtbl.mem unit_names uname && not (String.equal uname from) then
      Hashtbl.replace uses (uname, arr.(k + 1)) ()
  done

let collect_uses (units : Cmt_load.t list) : uses =
  let unit_names = Hashtbl.create 64 in
  List.iter
    (fun (u : Cmt_load.t) -> Hashtbl.replace unit_names u.Cmt_load.name ())
    units;
  let uses : uses = Hashtbl.create 256 in
  List.iter
    (fun (u : Cmt_load.t) ->
       match u.Cmt_load.impl with
       | None -> ()
       | Some str ->
         (* Alias-aware: [module Pool = Merlin_exec.Pool] makes later
            [Pool.submit] references count against Merlin_exec__Pool. *)
         let env = Pathx.alias_env_of_structure str in
         let record p =
           match Pathx.resolve env p with
           | None -> ()
           | Some comps ->
             record_use uses ~unit_names ~from:u.Cmt_load.name comps
         in
         let iter =
           { Tast_iterator.default_iterator with
             expr =
               (fun sub e ->
                  (match e.Typedtree.exp_desc with
                   | Typedtree.Texp_ident (p, _, _) -> record p
                   | _ -> ());
                  Tast_iterator.default_iterator.expr sub e);
             module_expr =
               (fun sub me ->
                  (match me.Typedtree.mod_desc with
                   | Typedtree.Tmod_ident (p, _) -> record p
                   | _ -> ());
                  Tast_iterator.default_iterator.module_expr sub me) }
         in
         iter.Tast_iterator.structure iter str)
    units;
  uses

let pretty_unit name = Pathx.to_string (Pathx.split_dune name)

let check ~waivers (units : Cmt_load.t list) =
  let uses = collect_uses units in
  List.concat_map
    (fun (u : Cmt_load.t) ->
       if Cmt_load.is_entry u || Cmt_load.is_alias_unit u then []
       else
         match u.Cmt_load.intf with
         | None -> []
         | Some sg ->
           List.filter_map
             (fun item ->
                match item.Typedtree.sig_desc with
                | Typedtree.Tsig_value vd ->
                  let name = Ident.name vd.Typedtree.val_id in
                  let loc = vd.Typedtree.val_loc in
                  let file = loc.Location.loc_start.Lexing.pos_fname in
                  let line = loc.Location.loc_start.Lexing.pos_lnum in
                  if
                    String.length name > 0
                    && name.[0] <> '_'
                    && (not (Hashtbl.mem uses (u.Cmt_load.name, name)))
                    && not
                         (Waivers.waived waivers ~file ~line
                            ~token:"dead-export")
                  then
                    Some
                      (Finding.make ~file ~line
                         ~col:
                           (loc.Location.loc_start.Lexing.pos_cnum
                           - loc.Location.loc_start.Lexing.pos_bol)
                         ~rule ~severity:Finding.Warning
                         (Printf.sprintf
                            "%s.%s is exported by its .mli but never \
                             referenced from another compilation unit"
                            (pretty_unit u.Cmt_load.name)
                            name))
                  else None
                | _ -> None)
             sg.Typedtree.sig_items)
    units
