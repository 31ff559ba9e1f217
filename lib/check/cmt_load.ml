(* Loading .cmt/.cmti artifacts into per-compilation-unit records.

   dune writes one .cmt per module (and a .cmti when there is an .mli)
   under lib/<d>/.<lib>.objs/byte/ and <dir>/.<exe>.eobjs/byte/; the
   loader walks any directory tree, picks both up and merges them by
   unit name.  Files whose magic number does not match this compiler's
   cmt magic are skipped silently (stale artifacts from another
   switch); files that then still fail to load produce a warning
   finding instead of aborting the whole run. *)

type t = {
  name : string;
  source : string option;
  intf_source : string option;
  impl : Typedtree.structure option;
  intf : Typedtree.signature option;
  load_path : string list;
}

(* Entry-point compilation units: roots of the reference graph, never
   analysis targets for dead-export.  Classified from the source path
   recorded in the cmt. *)
let entry_dirs = [ "bin"; "bench"; "test"; "examples" ]

let split_path path = String.split_on_char '/' path

let is_entry_source path =
  List.exists
    (fun comp -> List.exists (String.equal comp) entry_dirs)
    (split_path path)

(* The pool implementation itself: the one place allowed to mutate
   shared state, under its own lock discipline. *)
let is_pool_internal_source path =
  let rec under = function
    | "lib" :: "exec" :: _ -> true
    | _ :: rest -> under rest
    | [] -> false
  in
  under (split_path path)

let is_entry u =
  match u.source with
  | Some s -> is_entry_source s
  | None -> ( match u.intf_source with Some s -> is_entry_source s | None -> false)

let is_pool_internal u =
  match u.source with Some s -> is_pool_internal_source s | None -> false

(* A generated library alias module (merlin_exec.ml-gen): pure module
   aliases, no user-written interface. *)
let is_alias_unit u =
  match u.source with
  | Some s -> Filename.check_suffix s ".ml-gen"
  | None -> false

(* A cmt artifact starts with the cmt magic — or with the cmi magic
   when the unit's cmi is embedded, which is the on-disk shape of every
   .cmti and of the .cmt of any module without an .mli (read_cmt skips
   the cmi part itself). *)
let has_cmt_magic path =
  let magics = [ Config.cmt_magic_number; Config.cmi_magic_number ] in
  let n =
    List.fold_left (fun acc m -> max acc (String.length m)) 0 magics
  in
  match open_in_bin path with
  | ic ->
    let head =
      match really_input_string ic n with
      | s -> Some s
      | exception End_of_file -> None
    in
    close_in ic;
    (match head with
     | Some s ->
       List.exists
         (fun m -> String.equal (String.sub s 0 (String.length m)) m)
         magics
     | None -> false)
  | exception Sys_error _ -> false

type raw = {
  raw_name : string;
  raw_source : string option;
  raw_annots : Cmt_format.binary_annots;
  raw_load_path : string list;
}

let load_error_finding path msg =
  Finding.make ~file:path ~line:1 ~col:0 ~rule:"cmt-error"
    ~severity:Finding.Warning
    (Printf.sprintf "failed to load cmt artifact: %s" msg)

let read_raw path =
  match Cmt_format.read_cmt path with
  | infos ->
    Ok
      { raw_name = infos.Cmt_format.cmt_modname;
        raw_source = infos.Cmt_format.cmt_sourcefile;
        raw_annots = infos.Cmt_format.cmt_annots;
        raw_load_path = infos.Cmt_format.cmt_loadpath }
  | exception Cmi_format.Error _ ->
    Error (load_error_finding path "bad cmi payload")
  | exception Cmt_format.Error _ ->
    Error (load_error_finding path "not a typedtree")
  | exception Sys_error msg -> Error (load_error_finding path msg)
  | exception Failure msg -> Error (load_error_finding path msg)

let is_cmt_file path =
  Filename.check_suffix path ".cmt" || Filename.check_suffix path ".cmti"

(* Fixture trees hold deliberately-bad analyzer inputs; never pick
   their artifacts up from a project-wide walk. *)
let skip_dir name = Filename.check_suffix name "_fixtures"

let collect_cmt_files roots =
  let rec walk acc path =
    if Sys.is_directory path then
      Array.to_list (Sys.readdir path)
      |> List.sort String.compare
      |> List.fold_left
           (fun acc name ->
              let child = Filename.concat path name in
              if Sys.is_directory child then
                if skip_dir name then acc else walk acc child
              else if is_cmt_file child then child :: acc
              else acc)
           acc
    else if is_cmt_file path then path :: acc
    else acc
  in
  List.sort String.compare (List.fold_left walk [] roots)

(* Executables in different directories share module names (every
   (name main) executable compiles a Dune__exe__Main), so unit identity
   for merging must include the source directory — keying on the module
   name alone would let one main.ml's typedtree shadow another's and
   silently drop its references from the dead-export graph. *)
let unit_key raw =
  match raw.raw_source with
  | Some s -> raw.raw_name ^ "|" ^ Filename.dirname s
  | None -> raw.raw_name

let load_files paths =
  let units : (string, t) Hashtbl.t = Hashtbl.create 64 in
  let order = ref [] in
  let errors = ref [] in
  List.iter
    (fun path ->
       if has_cmt_magic path then (
         match read_raw path with
         | Error f -> errors := f :: !errors
         | Ok raw ->
           let key = unit_key raw in
           let existing =
             match Hashtbl.find_opt units key with
             | Some u -> u
             | None ->
               order := key :: !order;
               { name = raw.raw_name;
                 source = None;
                 intf_source = None;
                 impl = None;
                 intf = None;
                 load_path = raw.raw_load_path }
           in
           let merged =
             match raw.raw_annots with
             | Cmt_format.Implementation str ->
               { existing with
                 impl = Some str;
                 source = raw.raw_source;
                 load_path = raw.raw_load_path }
             | Cmt_format.Interface sg ->
               { existing with intf = Some sg; intf_source = raw.raw_source }
             | _ -> existing
           in
           Hashtbl.replace units key merged))
    paths;
  let loaded =
    List.rev !order |> List.filter_map (fun name -> Hashtbl.find_opt units name)
  in
  (loaded, List.rev !errors)

let load_roots roots = load_files (collect_cmt_files roots)
