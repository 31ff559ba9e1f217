open Merlin_geometry
open Merlin_net
open Merlin_curves
open Merlin_order

type result = {
  curve : Build.t Curve.t;
  candidates : Point.t array;
  merges : int;
}

(* A planned merge: the Gamma entry it absorbs (by its key, see
   [construct]), its terminals in order as slot tokens — a sink
   position's even, a chain's odd — and the runs slots.(i..j) of those
   terminals that no later merge holds, whose memoised cells die with
   it, as codes i * m + j for m slots. *)
type placement = {
  inner : int;
  slots : int array;
  mutable dying : int array;
}

(* A planned window: its Gamma key, covered positions and merges. *)
type window = {
  key : int;
  covered : int list;
  placements : placement array;
}

(* A skipped position, or -1: positions are never negative. *)
let skipped = function Some pos -> pos | None -> -1

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
  (* Gamma keys: (covered length, structure, right window end) as one
     int below 4 n (n + 1).  A chain's slot token is 2 key + 1. *)
  let key len e r = (((len * 4) + Grouping.code e) * n) + r in
  (* Gamma table: per-candidate curves by key, [||] where absent.  Only
     non-empty entries are stored. *)
  let gamma = Array.make (4 * n * (n + 1)) [||] in
  let gamma_put key curves =
    if Array.exists (fun c -> not (Curve.is_empty c)) curves then
      gamma.(key) <- curves
  in
  (* Chain terminals, one per Gamma entry of length >= 2, made on first
     use and reused by every merge that absorbs that entry (the context
     keys its cells by their identity) until the last one. *)
  let chains = Array.make (4 * n * (n + 1)) None in
  let chain_terminal key inner_curves =
    match chains.(key) with
    | Some term -> term
    | None ->
      let term =
        Star_ptree.Sub_term (Star_ptree.sub (chain_curves inner_curves))
      in
      chains.(key) <- Some term;
      term
  in
  let sink_at pos = Net.sink net order.(pos) in
  let sink_terms =
    Array.init n (fun pos -> Star_ptree.Sink_term (sink_at pos))
  in
  (* Scratch runs by length, reused by every merge and drop: a run's
     terminals (the context keeps none of them) and a run of slot tokens
     to look a signature or run up with. *)
  let run_terms = Array.make (n + 1) [||] in
  let scratch_terms len =
    if Array.length run_terms.(len) = 0 then
      run_terms.(len) <- Array.make len sink_terms.(0);
    run_terms.(len)
  in
  let run_keys = Array.make (n + 1) [||] in
  let scratch_key len =
    if Array.length run_keys.(len) = 0 then run_keys.(len) <- Array.make len 0;
    run_keys.(len)
  in
  let structures =
    if cfg.Config.bubbling then Grouping.all else [ Grouping.Chi0 ]
  in
  (* INITIALIZATION (Fig. 9 lines 1-4): single-sink paths, one entry per
     grouping structure whose window fits. *)
  let sink_base = Array.make n [||] in
  let base_curves pos =
    if Array.length sink_base.(pos) = 0 then
      sink_base.(pos) <- star ~active:all_active [| sink_terms.(pos) |];
    sink_base.(pos)
  in
  let init_one e =
    let stretch = Grouping.stretch e in
    for r = stretch to n - 1 do
      match Grouping.covered ~r ~len:1 e with
      | [ pos ] -> gamma_put (key 1 e r) (base_curves pos)
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
     memo").  A window covers an interval of positions less at most two
     skipped ones, so covering is an interval test. *)
  let covers ~start ~r ~sl ~sr (pos : int) =
    pos >= start && pos <= r && pos <> sl && pos <> sr
  in
  let signatures = Star_ptree.Runs.create 64 in
  let plan_window ~cov_len ~e_out ~r_out =
    let start_out = Grouping.window_start ~r:r_out ~len:cov_len e_out in
    let sl_out = skipped (Grouping.skipped_left ~r:r_out ~len:cov_len e_out)
    and sr_out = skipped (Grouping.skipped_right ~r:r_out ~len:cov_len e_out) in
    let in_out pos =
      covers ~start:start_out ~r:r_out ~sl:sl_out ~sr:sr_out pos
    in
    Star_ptree.Runs.clear signatures;
    let planned = ref [] in
    let try_inner l_in e_in r_in =
      let start_in = Grouping.window_start ~r:r_in ~len:l_in e_in in
      let sl_in = skipped (Grouping.skipped_left ~r:r_in ~len:l_in e_in)
      and sr_in = skipped (Grouping.skipped_right ~r:r_in ~len:l_in e_in) in
      (* Line 15: skip if the inner group covers a sink outside the
         enclosing group. *)
      let inside = ref true and first = ref (-1) in
      (* Downwards, so [first] ends at the first covered position. *)
      for pos = r_in downto start_in do
        if covers ~start:start_in ~r:r_in ~sl:sl_in ~sr:sr_in pos then begin
          first := pos;
          if not (in_out pos) then inside := false
        end
      done;
      if !inside then begin
        (* The direct sinks, left of, bubbled out of and right of the
           inner window, around the chain: a single-sink chain is just
           that sink.  Routing-wise the two are identical, and
           collapsing them lets the signature check below share merges
           across equivalent (e, r) placements. *)
        let m = 1 + (cov_len - l_in) in
        let slots = scratch_key m in
        let t = ref 0 in
        for pos = start_out to start_in - 1 do
          if in_out pos then begin
            slots.(!t) <- 2 * pos;
            incr t
          end
        done;
        if sl_in >= 0 && in_out sl_in then begin
          slots.(!t) <- 2 * sl_in;
          incr t
        end;
        slots.(!t) <-
          (if l_in = 1 then 2 * !first else (2 * key l_in e_in r_in) + 1);
        incr t;
        if sr_in >= 0 && in_out sr_in then begin
          slots.(!t) <- 2 * sr_in;
          incr t
        end;
        for pos = r_in + 1 to r_out do
          if in_out pos then begin
            slots.(!t) <- 2 * pos;
            incr t
          end
        done;
        (* Every direct sink must be accounted for. *)
        assert (!t = m);
        if not (Star_ptree.Runs.mem signatures slots) then begin
          let slots = Array.copy slots in
          Star_ptree.Runs.add signatures slots ();
          planned :=
            { inner = key l_in e_in r_in; slots; dying = [||] } :: !planned
        end
      end
    in
    for l_in = max 1 (cov_len - alpha + 1) to cov_len - 1 do
      List.iter
        (fun e_in ->
           if Grouping.valid ~len:l_in e_in then begin
             let lo = start_out + l_in + Grouping.stretch e_in - 1 in
             match cfg.Config.chain_placement with
             | Config.All_positions ->
               for r_in = lo to r_out do
                 try_inner l_in e_in r_in
               done
             | Config.Flush_ends ->
               if lo <= r_out then try_inner l_in e_in lo;
               if lo < r_out then try_inner l_in e_in r_out
           end)
        structures
    done;
    { key = key cov_len e_out r_out;
      covered = Grouping.covered ~r:r_out ~len:cov_len e_out;
      placements = Array.of_list (List.rev !planned) }
  in
  let windows = ref [] in
  for cov_len = 2 to n do
    List.iter
      (fun e_out ->
         if Grouping.valid ~len:cov_len e_out then
           for r_out = cov_len + Grouping.stretch e_out - 1 to n - 1 do
             windows := plan_window ~cov_len ~e_out ~r_out :: !windows
           done)
      structures
  done;
  let windows = Array.of_list (List.rev !windows) in
  (* A run of terminals dies with the last merge that holds it: walking
     the plan backwards, that is where the run (as slot tokens) is met
     first. *)
  let seen = Star_ptree.Runs.create 1024 in
  let dying = Array.make ((n + 1) * (n + 1)) 0 in
  for w = Array.length windows - 1 downto 0 do
    let placements = windows.(w).placements in
    for q = Array.length placements - 1 downto 0 do
      let pl = placements.(q) in
      let m = Array.length pl.slots in
      let count = ref 0 in
      for i = 0 to m - 1 do
        for j = i to m - 1 do
          let run = scratch_key (j - i + 1) in
          Array.blit pl.slots i run 0 (j - i + 1);
          if not (Star_ptree.Runs.mem seen run) then begin
            Star_ptree.Runs.add seen (Array.copy run) ();
            dying.(!count) <- (i * m) + j;
            incr count
          end
        done
      done;
      pl.dying <- Array.sub dying 0 !count
    done
  done;
  (* Drop the cells of the runs that die with [pl], then forget the
     chain terminal if it dies too: every run holding the chain needs it
     to be dropped.  A run whose chain was never made (its Gamma entry is
     empty) has no cells. *)
  let retire pl =
    let m = Array.length pl.slots in
    for d = 0 to Array.length pl.dying - 1 do
      let i = pl.dying.(d) / m and j = pl.dying.(d) mod m in
      let run = scratch_terms (j - i + 1) in
      let made = ref true in
      for t = i to j do
        let tok = pl.slots.(t) in
        if tok land 1 = 0 then run.(t - i) <- sink_terms.(tok lsr 1)
        else
          match chains.(tok lsr 1) with
          | Some term -> run.(t - i) <- term
          | None -> made := false
      done;
      if !made then Star_ptree.drop context run
    done;
    for d = 0 to Array.length pl.dying - 1 do
      let i = pl.dying.(d) / m and j = pl.dying.(d) mod m in
      let tok = pl.slots.(i) in
      if i = j && tok land 1 = 1 then chains.(tok lsr 1) <- None
    done
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
    Array.iter
      (fun pl ->
         let inner_curves = gamma.(pl.inner) in
         if Array.length inner_curves > 0 then begin
           let m = Array.length pl.slots in
           let run = scratch_terms m in
           for t = 0 to m - 1 do
             let tok = pl.slots.(t) in
             run.(t) <-
               (if tok land 1 = 0 then sink_terms.(tok lsr 1)
                else chain_terminal (tok lsr 1) inner_curves)
           done;
           let out = star ~active run in
           for p = 0 to k - 1 do
             if not (Curve.is_empty out.(p)) then
               Curve.Builder.add_curve (acc_builder p) out.(p)
           done
         end;
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
    gamma_put w.key capped
  in
  Array.iter merge_window windows;
  (* With one sink no merge holds the initialisation's run. *)
  if n = 1 then Star_ptree.drop context [| sink_terms.(0) |];
  (* EXTRACTION (Fig. 9 lines 21-23): connect the driver, and build the
     trees and member lists of the final curve's points, the only ones
     of the construction that are read. *)
  let top = gamma.(key n Grouping.Chi0 (n - 1)) in
  let final =
    if Array.length top = 0 then Curve.empty
    else Curve.map_data Build.materialise (Batch.to_driver ~tech net top)
  in
  { curve = final; candidates; merges = !merges }
