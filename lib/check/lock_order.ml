(* C4 — lock-order.

   The project lock graph has an edge held -> acquired for every
   acquisition site (Mutex.lock, Mutex.protect, a protect-like helper,
   or a call whose summary acquires locks) reached while another lock
   region is active.  Two findings come out of it:

   - a cycle: some interleaving of the participating threads
     deadlocks.  A self-edge is the degenerate case — stdlib mutexes
     are not reentrant, so re-acquiring a held lock deadlocks alone.

   - a spec violation: the committed lock-order spec (lock-order.spec,
     outermost first) ranks both endpoints and the edge acquires a
     lower-ranked (outer) lock while holding a higher-ranked (inner)
     one.  Cycles need two call paths to disagree before they are
     visible; the spec catches the first one.

   Edges whose endpoints the spec does not rank are only checked for
   cycles, so adding a lock never fails the build until it is either
   ranked or inverted. *)

let rule = "lock-order"

(* ---------- spec ---------- *)

(* One lock name per line, outermost (acquired first) at the top;
   '#' comments and blank lines ignored. *)
let spec_of_string text =
  let lines = String.split_on_char '\n' text in
  let entries =
    List.filter_map
      (fun line ->
         let line = String.trim line in
         if String.length line = 0 || line.[0] = '#' then None
         else Some line)
      lines
  in
  let rec dup = function
    | [] -> None
    | x :: rest -> if List.mem x rest then Some x else dup rest
  in
  match dup entries with
  | Some name -> Error (Printf.sprintf "lock %S listed twice" name)
  | None -> Ok entries

let load_spec path =
  match
    let ic = open_in_bin path in
    let len = in_channel_length ic in
    let text = really_input_string ic len in
    close_in ic;
    text
  with
  | text -> spec_of_string text
  | exception Sys_error msg -> Error msg

(* ---------- cycle detection ---------- *)

(* [reaches succs a b]: b reachable from a following edges. *)
let reaches succs a b =
  let seen = Hashtbl.create 16 in
  let rec go n =
    if Hashtbl.mem seen n then false
    else begin
      Hashtbl.replace seen n ();
      match Hashtbl.find_opt succs n with
      | None -> false
      | Some ns -> List.exists (fun m -> String.equal m b || go m) ns
    end
  in
  String.equal a b || go a

(* Shortest held -> ... -> held description through [acquired], for the
   message. *)
let cycle_text succs held acquired =
  if String.equal held acquired then held ^ " -> " ^ held
  else begin
    (* BFS from acquired back to held *)
    let q = Queue.create () in
    let pred = Hashtbl.create 16 in
    Queue.push acquired q;
    Hashtbl.replace pred acquired None;
    let found = ref false in
    while (not !found) && not (Queue.is_empty q) do
      let n = Queue.pop q in
      if String.equal n held then found := true
      else
        List.iter
          (fun m ->
             if not (Hashtbl.mem pred m) then begin
               Hashtbl.replace pred m (Some n);
               Queue.push m q
             end)
          (Option.value (Hashtbl.find_opt succs n) ~default:[])
    done;
    if not !found then held ^ " -> " ^ acquired ^ " -> ... -> " ^ held
    else begin
      let rec path n acc =
        match Hashtbl.find_opt pred n with
        | Some (Some p) -> path p (n :: acc)
        | _ -> n :: acc
      in
      String.concat " -> " (held :: List.rev (path held []))
    end
  end

(* ---------- rule ---------- *)

let finding ~waivers (loc : Location.t) message =
  let file = loc.Location.loc_start.Lexing.pos_fname in
  let line = loc.Location.loc_start.Lexing.pos_lnum in
  let col =
    loc.Location.loc_start.Lexing.pos_cnum
    - loc.Location.loc_start.Lexing.pos_bol
  in
  if Waivers.waived waivers ~file ~line ~token:"lock-order" then None
  else
    Some (Finding.make ~file ~line ~col ~rule ~severity:Finding.Error message)

let check ~waivers ~spec project =
  let all = Concur.edges project in
  let succs : (string, string list) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (e : Concur.edge) ->
       let prev = Option.value (Hashtbl.find_opt succs e.e_held) ~default:[] in
       if not (List.mem e.e_lock prev) then
         Hashtbl.replace succs e.e_held (e.e_lock :: prev))
    all;
  let rank =
    let tbl = Hashtbl.create 16 in
    List.iteri (fun i name -> Hashtbl.replace tbl name i) spec;
    tbl
  in
  List.filter_map
    (fun (e : Concur.edge) ->
       if reaches succs e.e_lock e.e_held then
         finding ~waivers e.e_loc
           (Printf.sprintf
              "acquiring %s (via %s) while holding %s closes a lock cycle \
               [%s]; some interleaving deadlocks — acquire locks in one \
               global order (waive: lock-order)"
              e.e_lock e.e_via e.e_held
              (cycle_text succs e.e_held e.e_lock))
       else
         match
           (Hashtbl.find_opt rank e.e_held, Hashtbl.find_opt rank e.e_lock)
         with
         | Some rh, Some rl when rl < rh ->
           finding ~waivers e.e_loc
             (Printf.sprintf
                "acquiring %s (via %s) while holding %s inverts the \
                 committed lock order (%s is rank %d, %s is rank %d in \
                 lock-order.spec) (waive: lock-order)"
                e.e_lock e.e_via e.e_held e.e_lock rl e.e_held rh)
         | _ -> None)
    all
