open Merlin_geometry
open Merlin_net
open Merlin_curves
open Merlin_order

type result = {
  curve : Build.t Curve.t;
  candidates : Point.t array;
  merges : int;
}

(* One terminal of a planned merge: a sink position, or the chain built
   from Gamma entry (length, structure, right window end). *)
type slot = Pos of int | Chain of int * Grouping.t * int

(* A planned merge: the Gamma entry it absorbs, its terminals in order,
   and the runs slots.(i..j) of those terminals that no later merge
   holds, whose memoised cells die with it. *)
type placement = {
  inner : int * Grouping.t * int;
  slots : slot array;
  mutable dying : (int * int) list;
}

(* A planned window: its Gamma key, covered positions and merges. *)
type window = {
  cov_len : int;
  e_out : Grouping.t;
  r_out : int;
  covered : int list;
  placements : placement list;
}

let candidate_set (cfg : Config.t) net =
  let pts = Net.terminals net in
  let limit =
    if cfg.Config.full_hanan then cfg.Config.candidate_limit
    else min cfg.Config.candidate_limit (max 8 (2 * Net.n_sinks net))
  in
  Array.of_list (Hanan.reduced pts ~limit)

let hierarchy (sol : Build.t Solution.t) =
  Catree.level sol.Solution.data.Build.members

let realized_order sol = Order.of_list (Catree.sinks_in_order (hierarchy sol))

(* A closed sub-group becomes a single chain member when absorbed by the
   enclosing level.  Only the payload changes, so the frontiers stay as
   they are. *)
let chain_curves curves = Array.map (Curve.map_data Build.chain) curves

let construct ?candidates ~cfg ~tech ~buffers (net : Net.t) order =
  Config.validate cfg;
  if not (Order.is_permutation order) || Order.length order <> Net.n_sinks net
  then invalid_arg "Bubble_construct.construct: bad order";
  let n = Net.n_sinks net in
  let alpha = cfg.Config.alpha in
  let candidates =
    match candidates with
    | None -> candidate_set cfg net
    | Some given ->
      (* The source must be a candidate (it anchors every active set). *)
      if Array.exists (Point.equal net.Net.source) given then given
      else Array.append [| net.Net.source |] given
  in
  let k = Array.length candidates in
  (* The source comes first (see Star_ptree.source_first); a candidate
     limit below the terminal count can leave it out, and then the
     candidates keep their order. *)
  let all_active =
    Option.value ~default:(Array.init k Fun.id)
      (Star_ptree.source_first candidates net.Net.source)
  in
  let source_index = all_active.(0) in
  let merges = ref 0 in
  (* One *PTREE context per construction: every merge shares its cells
     (DESIGN.md §9 "Cell memo").  Never shared across constructions, so
     concurrent flows never touch the same one. *)
  let context =
    Star_ptree.context ~tech ~buffers ~trials:cfg.Config.buffer_trials
      ~max_curve:cfg.Config.max_curve
      ~quant:(cfg.Config.quant_req, cfg.Config.quant_load, cfg.Config.quant_area)
      ~bbox_slack:cfg.Config.bbox_slack ~candidates ()
  in
  let star ~active terminals =
    incr merges;
    Star_ptree.run_in context ~active ~terminals
  in
  (* Merge accumulators, shared by every window of the construction: one
     scratch builder per candidate, cleared on first use inside a window
     (the stamp check).  A window touches few candidates, so the pool
     stays small while merges allocate only their capped curves. *)
  let merge_blds = Array.make k None in
  let merge_stamp = Array.make k 0 in
  let window_id = ref 0 in
  (* Gamma table: (covered length, structure code, right window end) ->
     per-candidate curves.  Only non-empty entries are stored. *)
  let gamma : (int * int * int, Build.prov Curve.t array) Hashtbl.t =
    Hashtbl.create 256
  in
  let gamma_find len e r =
    Hashtbl.find_opt gamma (len, Grouping.code e, r)
  in
  let gamma_put len e r curves =
    if Array.exists (fun c -> not (Curve.is_empty c)) curves then
      Hashtbl.replace gamma (len, Grouping.code e, r) curves
  in
  (* Chain terminals, one per Gamma entry of length >= 2, made on first
     use and reused by every merge that absorbs that entry (the context
     keys its cells by their identity) until the last one. *)
  let chains : (int * int * int, Star_ptree.sub) Hashtbl.t = Hashtbl.create 64 in
  let chain_terminal len e r inner_curves =
    let key = (len, Grouping.code e, r) in
    match Hashtbl.find_opt chains key with
    | Some sub -> sub
    | None ->
      let sub = Star_ptree.sub (chain_curves inner_curves) in
      Hashtbl.replace chains key sub;
      sub
  in
  let sink_at pos = Net.sink net order.(pos) in
  let structures =
    if cfg.Config.bubbling then Grouping.all else [ Grouping.Chi0 ]
  in
  (* INITIALIZATION (Fig. 9 lines 1-4): single-sink paths, one entry per
     grouping structure whose window fits. *)
  let sink_base = Hashtbl.create 16 in
  let base_curves pos =
    match Hashtbl.find_opt sink_base pos with
    | Some curves -> curves
    | None ->
      let curves =
        star ~active:all_active [| Star_ptree.Sink_term (sink_at pos) |]
      in
      Hashtbl.replace sink_base pos curves;
      curves
  in
  (* Candidates offered to a merge: those inside the covered sinks' bounding
     box inflated by the configured slack, plus the source. *)
  let active_for covered_positions =
    let box =
      Rect.inflate_by_slack cfg.Config.bbox_slack
        (Rect.bounding_box
           (List.map (fun pos -> (sink_at pos).Sink.pt) covered_positions))
    in
    let inside = ref [] in
    for p = k - 1 downto 0 do
      if p <> source_index && Rect.contains box candidates.(p) then
        inside := p :: !inside
    done;
    Array.of_list (source_index :: !inside)
  in
  let init_one e =
    let stretch = Grouping.stretch e in
    for r = stretch to n - 1 do
      match Grouping.covered ~r ~len:1 e with
      | [ pos ] -> gamma_put 1 e r (base_curves pos)
      | _ -> assert false
    done
  in
  List.iter
    (fun e -> if Grouping.valid ~len:1 e then init_one e)
    structures;
  (* CONSTRUCTION (Fig. 9 lines 5-20), in two passes.  The first plans
     every window's merges — which Gamma entry becomes the chain, which
     sinks go left and right of it — in execution order; that depends
     only on positions.  The second runs them.  Knowing every merge up
     front tells when a run of terminals is held for the last time, so
     the *PTREE context drops its cells right after (DESIGN.md §9 "Cell
     memo"). *)
  let module IS = Set.Make (Int) in
  (* Slot tokens: a position's is even, a chain's odd. *)
  let token = function
    | Pos pos -> 2 * pos
    | Chain (l, e, r) -> (2 * ((((l * 4) + Grouping.code e) * n) + r)) + 1
  in
  let plan_window ~cov_len ~e_out ~r_out =
    let covered_out = Grouping.covered ~r:r_out ~len:cov_len e_out in
    let set_out = IS.of_list covered_out in
    let start_out = Grouping.window_start ~r:r_out ~len:cov_len e_out in
    let seen_signatures = Hashtbl.create 16 in
    let planned = ref [] in
    let try_inner l_in e_in r_in =
      let covered_in = Grouping.covered ~r:r_in ~len:l_in e_in in
      let set_in = IS.of_list covered_in in
      (* Line 15: skip if the inner group covers a sink outside the
         enclosing group. *)
      if IS.subset set_in set_out then begin
        let directs = IS.elements (IS.diff set_out set_in) in
        let start_in = Grouping.window_start ~r:r_in ~len:l_in e_in in
        let sl = Grouping.skipped_left ~r:r_in ~len:l_in e_in in
        let sr = Grouping.skipped_right ~r:r_in ~len:l_in e_in in
        let skipped_at opt pos =
          match opt with Some p -> Int.equal p pos | None -> false
        in
        let is_bubbled pos = skipped_at sl pos || skipped_at sr pos in
        let positions = List.map (fun pos -> Pos pos) in
        let lefts =
          List.filter (fun pos -> pos < start_in && not (is_bubbled pos)) directs
        and rights =
          List.filter (fun pos -> pos > r_in && not (is_bubbled pos)) directs
        in
        let bubbled skipped =
          match skipped with
          | Some pos when IS.mem pos set_out -> [ Pos pos ]
          | Some _ | None -> []
        in
        (* A single-sink chain is just that sink: routing-wise the two
           are identical, and collapsing them lets the signature check
           below share merges across equivalent (e, r) placements. *)
        let chain =
          if l_in = 1 then positions covered_in else [ Chain (l_in, e_in, r_in) ]
        in
        let slots =
          positions lefts @ bubbled sl @ chain @ bubbled sr @ positions rights
        in
        (* Every direct sink must be accounted for: left of, bubbled
           out of, or right of the inner window. *)
        assert (List.length slots = 1 + (cov_len - l_in));
        let signature = List.map token slots in
        if not (Hashtbl.mem seen_signatures signature) then begin
          Hashtbl.add seen_signatures signature ();
          planned :=
            { inner = (l_in, e_in, r_in); slots = Array.of_list slots; dying = [] }
            :: !planned
        end
      end
    in
    let inner_r_positions l_in' =
      let lo = start_out + l_in' - 1 and hi = r_out in
      match cfg.Config.chain_placement with
      | Config.All_positions -> List.init (max 0 (hi - lo + 1)) (fun i -> lo + i)
      | Config.Flush_ends ->
        if lo > hi then [] else if lo = hi then [ lo ] else [ lo; hi ]
    in
    for l_in = max 1 (cov_len - alpha + 1) to cov_len - 1 do
      List.iter
        (fun e_in ->
           if Grouping.valid ~len:l_in e_in then begin
             let l_in' = l_in + Grouping.stretch e_in in
             List.iter (fun r_in -> try_inner l_in e_in r_in)
               (inner_r_positions l_in')
           end)
        structures
    done;
    { cov_len; e_out; r_out; covered = covered_out;
      placements = List.rev !planned }
  in
  let windows =
    List.concat_map
      (fun cov_len ->
         List.concat_map
           (fun e_out ->
              if not (Grouping.valid ~len:cov_len e_out) then []
              else
                let l_out' = cov_len + Grouping.stretch e_out in
                List.init
                  (max 0 (n - l_out' + 1))
                  (fun i -> plan_window ~cov_len ~e_out ~r_out:(l_out' - 1 + i)))
           structures)
      (List.init (max 0 (n - 1)) (fun i -> i + 2))
  in
  (* A run of terminals dies with the last merge that holds it: walking
     the plan backwards, that is where the run (as slot tokens) is met
     first. *)
  let seen = Star_ptree.Runs.create 1024 in
  List.iter
    (fun pl ->
       let toks = Array.map token pl.slots in
       let m = Array.length toks in
       for i = 0 to m - 1 do
         for j = i to m - 1 do
           let run = Array.sub toks i (j - i + 1) in
           if not (Star_ptree.Runs.mem seen run) then begin
             Star_ptree.Runs.add seen run ();
             pl.dying <- (i, j) :: pl.dying
           end
         done
       done)
    (List.rev (List.concat_map (fun w -> w.placements) windows));
  (* Drop the cells of the runs that die with [pl], then forget the
     chain terminal if it dies too: every run holding the chain needs it
     to be dropped.  A run whose chain was never made (its Gamma entry is
     empty) has no cells. *)
  let retire pl =
    List.iter
      (fun (i, j) ->
         let terminals =
           List.filter_map
             (function
               | Pos pos -> Some (Star_ptree.Sink_term (sink_at pos))
               | Chain (l, e, r) ->
                 Option.map
                   (fun sub -> Star_ptree.Sub_term sub)
                   (Hashtbl.find_opt chains (l, Grouping.code e, r)))
             (Array.to_list (Array.sub pl.slots i (j - i + 1)))
         in
         if List.length terminals = j - i + 1 then
           Star_ptree.drop context (Array.of_list terminals))
      pl.dying;
    List.iter
      (fun (i, j) ->
         match pl.slots.(i) with
         | Chain (l, e, r) when i = j -> Hashtbl.remove chains (l, Grouping.code e, r)
         | Chain _ | Pos _ -> ())
      pl.dying
  in
  let merge_window w =
    let active = active_for w.covered in
    (* Per-candidate batch accumulators (most candidates never receive a
       curve): every inner placement's curves are pushed and the frontier
       computed once per candidate, instead of a re-pruning union per
       placement.  Builders come from the construct-level pool; the stamp
       marks which candidates this window actually touched. *)
    incr window_id;
    let acc_builder p =
      let bld =
        match merge_blds.(p) with
        | Some bld -> bld
        | None ->
          let bld = Curve.Builder.create () in
          merge_blds.(p) <- Some bld;
          bld
      in
      if merge_stamp.(p) <> !window_id then begin
        merge_stamp.(p) <- !window_id;
        Curve.Builder.clear bld
      end;
      bld
    in
    List.iter
      (fun pl ->
         let l_in, e_in, r_in = pl.inner in
         (match gamma_find l_in e_in r_in with
          | None -> ()
          | Some inner_curves ->
            let terminal = function
              | Pos pos -> Star_ptree.Sink_term (sink_at pos)
              | Chain (l, e, r) ->
                Star_ptree.Sub_term (chain_terminal l e r inner_curves)
            in
            let out = star ~active (Array.map terminal pl.slots) in
            Array.iteri
              (fun p c ->
                 if not (Curve.is_empty c) then
                   Curve.Builder.add_curve (acc_builder p) c)
              out);
         retire pl)
      w.placements;
    let capped =
      Array.init k (fun p ->
          if merge_stamp.(p) <> !window_id then Curve.empty
          else
            match merge_blds.(p) with
            | None -> Curve.empty
            | Some bld ->
              Curve.Builder.build ~name:"Bubble_construct.merge"
                ~max_size:cfg.Config.max_curve bld)
    in
    gamma_put w.cov_len w.e_out w.r_out capped
  in
  List.iter merge_window windows;
  (* With one sink no merge holds the initialisation's run. *)
  if n = 1 then Star_ptree.drop context [| Star_ptree.Sink_term (sink_at 0) |];
  (* EXTRACTION (Fig. 9 lines 21-23): connect the driver, and build the
     trees and member lists of the final curve's points, the only ones
     of the construction that are read. *)
  let final =
    match gamma_find n Grouping.Chi0 (n - 1) with
    | None -> Curve.empty
    | Some top -> Curve.map_data Build.materialise (Batch.to_driver ~tech net top)
  in
  { curve = final; candidates; merges = !merges }
