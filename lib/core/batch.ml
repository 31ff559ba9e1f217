open Merlin_tech
open Merlin_net
open Merlin_curves

(* [bld] is the one builder of every batch, and it owns its
   sort/staircase/selection scratch (see Curve.Builder); a cleared
   builder is observationally a fresh one.  Each batch's build_map
   decodes its codes through [bases] (see [part_of]), the join operands
   [lefts] and [rights], or [open_ix] (closures), which always belong to
   the open batch since no two interleave.  [cost] is the flat cost
   record threaded through every cost computation; the rest is the
   pre-filters' grow-only scratch and the last batch's counts. *)
type t = {
  tech : Tech.t;
  subset : Buffer_lib.t;
  max_curve : int;
  quant : float * float * float;
  bld : int Curve.Builder.b;
  cost : Curve.Builder.cost;
  mutable lefts : Build.prov Curve.t array;
  mutable rights : Build.prov Curve.t array;
  mutable bases : int array;
  mutable left_dom : int array;
  mutable right_dom : int array;
  mutable open_ix : int array;
  mutable trial_req : floatarray;
  mutable trial_load : floatarray;
  mutable trial_area : floatarray;
  mutable trial_beaten : bool array;
  mutable pushed : int;
  mutable filtered : int;
}

let create ~tech ~subset ~max_curve ~quant =
  { tech; subset; max_curve; quant;
    bld = Curve.Builder.create ();
    cost = Curve.Builder.new_cost ();
    lefts = [||];
    rights = [||];
    bases = [||];
    left_dom = [||];
    right_dom = [||];
    open_ix = [||];
    trial_req = Float.Array.create 0;
    trial_load = Float.Array.create 0;
    trial_area = Float.Array.create 0;
    trial_beaten = [||];
    pushed = 0;
    filtered = 0 }

let pushed b = b.pushed
let filtered b = b.filtered
let kept b = Curve.Builder.kept b.bld

(* Quantise a cost record in place to the push grids: the same
   floor/ceil expressions as Solution.quantise, so bit-identical. *)
let quantise_cost (req_grid, load_grid, area_grid) (c : Curve.Builder.cost) =
  if req_grid <> 0.0 then
    c.Curve.Builder.creq <- floor (c.Curve.Builder.creq /. req_grid) *. req_grid;
  if load_grid <> 0.0 then
    c.Curve.Builder.cload <-
      ceil (c.Curve.Builder.cload /. load_grid) *. load_grid;
  if area_grid <> 0.0 then
    c.Curve.Builder.carea <-
      ceil (c.Curve.Builder.carea /. area_grid) *. area_grid

let grow_ints a n = if Array.length a >= n then a else Array.make (2 * n) 0

(* The part of the open batch that candidate [code] belongs to: the last
   of the [n] parts whose base is at most [code] ([bases.(n)] is the
   batch's product size, and an empty part, which holds no code, shares
   its base with the next). *)
let part_of bases n code =
  let lo = ref 0 and hi = ref n in
  while !hi - !lo > 1 do
    let mid = (!lo + !hi) / 2 in
    if bases.(mid) <= code then lo := mid else hi := mid
  done;
  !lo

let sink b root s =
  let req_grid, load_grid, area_grid = b.quant in
  Curve.singleton
    (Solution.quantise ~req_grid ~load_grid ~area_grid
       (Build.extend_wire b.tech ~to_:root (Build.of_sink s)))

(* Every solution of [curves] re-rooted at [root] through a wire, as one
   batch: a candidate's code is its flat index over [curves].  With a
   [driver], its gate delay at the load it then drives comes off the
   required time (the driver batch, whose grids are all zero). *)
let extend_with ~name ~driver b root curves =
  let n = Array.length curves in
  b.bases <- grow_ints b.bases (n + 1);
  let { bld; cost; bases; _ } = b in
  Curve.Builder.clear bld;
  let code = ref 0 in
  for s = 0 to n - 1 do
    let c = curves.(s) in
    bases.(s) <- !code;
    for i = 0 to Curve.size c - 1 do
      Build.extend_wire_cost_into cost b.tech ~to_:root c i;
      (match driver with
       | None -> ()
       | Some d ->
         cost.Curve.Builder.creq <-
           cost.Curve.Builder.creq
           -. Delay_model.delay d ~load:cost.Curve.Builder.cload);
      quantise_cost b.quant cost;
      Curve.Builder.push_cost bld cost !code;
      incr code
    done
  done;
  bases.(n) <- !code;
  b.pushed <- !code;
  b.filtered <- 0;
  Curve.Builder.build_map ~name ~max_size:b.max_curve bld ~f:(fun code ->
      let s = part_of bases n code in
      Build.extend_wire_data ~to_:root curves.(s).Curve.data.(code - bases.(s)))

let extend b root curves =
  extend_with ~name:"Batch.extend" ~driver:None b root curves

let to_driver ~tech (net : Net.t) curves =
  let b = create ~tech ~subset:[||] ~max_curve:max_int ~quant:(0.0, 0.0, 0.0) in
  extend_with ~name:"Batch.to_driver" ~driver:(Some net.Net.driver) b
    net.Net.source curves

(* The exact pre-filters (DESIGN.md §9 "Exact candidate pre-filters").
   A candidate may be left out of a batch when the full batch holds
   another candidate that the builder sorts before it and whose
   quantised cost weakly dominates it: the staircase sweep would drop
   it, and dropping it early moves no other point in or out of the
   frontier, so the built curve is the same down to payloads and order.

   [load_dom dom c] sets [dom.(i)] to the position of the
   highest-required-time point of [c] whose (load, area) is at most
   point i's in both, or -1.  Such a point sits after i: a curve is an
   antichain in req-descending order, so an earlier one would dominate
   i outright, and for the same reason it beats i strictly in load or
   area. *)
let load_dom dom (c : _ Curve.t) =
  let load = c.Curve.load and area = c.Curve.area in
  let n = Curve.size c in
  for i = 0 to n - 1 do
    let d = ref (-1) and j = ref (i + 1) in
    while !d < 0 && !j < n do
      if Float.Array.get load !j <= Float.Array.get load i
         && Float.Array.get area !j <= Float.Array.get area i
      then d := !j;
      incr j
    done;
    dom.(i) <- !d
  done

(* Whether joining x = point i of [xs] with y = point j of [ys] and
   joining x' = point i' of [xs] with y cost differently once quantised,
   given that both joins have the same req.  Their loads are x.load +
   y.load against x'.load + y.load, and likewise for area: the float
   expressions of Build.join_cost_into (float addition is commutative,
   so the operand order does not matter), rounded up as in
   [quantise_cost]. *)
let rival_differs (_, load_grid, area_grid) (xs : _ Curve.t) i i'
    (ys : _ Curve.t) j =
  let xl = xs.Curve.load and xa = xs.Curve.area in
  let yl = Float.Array.get ys.Curve.load j
  and ya = Float.Array.get ys.Curve.area j in
  let load = Float.Array.get xl i +. yl and load' = Float.Array.get xl i' +. yl
  and area = Float.Array.get xa i +. ya
  and area' = Float.Array.get xa i' +. ya in
  (if load_grid <> 0.0 then
     not
       (Float.equal
          (ceil (load /. load_grid) *. load_grid)
          (ceil (load' /. load_grid) *. load_grid))
   else not (Float.equal load load'))
  ||
  if area_grid <> 0.0 then
    not
      (Float.equal
         (ceil (area /. area_grid) *. area_grid)
         (ceil (area' /. area_grid) *. area_grid))
  else not (Float.equal area area')

let split b s left right =
  if s >= Array.length b.lefts then begin
    b.lefts <- Array.append b.lefts (Array.make (s + 1) Curve.empty);
    b.rights <- Array.append b.rights (Array.make (s + 1) Curve.empty)
  end;
  b.lefts.(s) <- left;
  b.rights.(s) <- right

(* The join product of one split, from code [base] on (see [join]),
   except the pairs another pair of the same product provably beats;
   returns how many it pushed.  Let a.req <= b.req, so the pair's req is a's, and d = dom(b)
   with d.req >= a.req: (a, d) has the same req and no more load or
   area, and quantising is monotone, so it weakly dominates (a, b).  If
   the quantised costs differ, the sweep puts (a, d) first and drops (a,
   b).  If they tie, it keeps the earlier push, which is (a, b) (d sits
   after b in its curve), so (a, b) is pushed.  The case b.req < a.req is
   the same with d = dom(a).  A dropped pair costs only its comparison;
   the pushed ones go through Build.join_cost_into like every other
   candidate. *)
let join_split b ~base left right =
  let nl = Curve.size left and nr = Curve.size right in
  b.left_dom <- grow_ints b.left_dom nl;
  b.right_dom <- grow_ints b.right_dom nr;
  let { bld; cost; quant; left_dom = ld; right_dom = rd; _ } = b in
  load_dom ld left;
  load_dom rd right;
  let lreq = left.Curve.req and rreq = right.Curve.req in
  let pushed = ref 0 in
  for ia = 0 to nl - 1 do
    let ra = Float.Array.get lreq ia in
    for ib = 0 to nr - 1 do
      let rb = Float.Array.get rreq ib in
      let beaten =
        if ra <= rb then begin
          let k = rd.(ib) in
          k >= 0
          && Float.Array.get rreq k >= ra
          && rival_differs quant right ib k left ia
        end
        else begin
          let k = ld.(ia) in
          k >= 0
          && Float.Array.get lreq k >= rb
          && rival_differs quant left ia k right ib
        end
      in
      if not beaten then begin
        incr pushed;
        Build.join_cost_into cost left ia right ib;
        quantise_cost quant cost;
        Curve.Builder.push_cost bld cost (base + (ia * nr) + ib)
      end
    done
  done;
  !pushed

let join b root n =
  b.bases <- grow_ints b.bases (n + 1);
  let { bld; lefts; rights; bases; _ } = b in
  Curve.Builder.clear bld;
  let base = ref 0 and pushed = ref 0 in
  for s = 0 to n - 1 do
    let left = lefts.(s) and right = rights.(s) in
    bases.(s) <- !base;
    pushed := !pushed + join_split b ~base:!base left right;
    base := !base + (Curve.size left * Curve.size right)
  done;
  bases.(n) <- !base;
  b.pushed <- !pushed;
  b.filtered <- !base - !pushed;
  Curve.Builder.build_map ~name:"Batch.join" ~max_size:b.max_curve bld
    ~f:(fun code ->
        let s = part_of bases n code in
        let right = rights.(s) and off = code - bases.(s) in
        let nr = Curve.size right in
        Build.join_data root
          lefts.(s).Curve.data.(off / nr)
          right.Curve.data.(off mod nr))

(* The provenance of closure candidate [code] of [curve], as [close]
   named it; [open_ix] still holds that batch's roots. *)
let close_data b curve code =
  let n = Curve.size curve and data = curve.Curve.data in
  if code < n then data.(code)
  else begin
    let nb = Array.length b.subset and t = code - n in
    Build.add_root_buffer_data b.subset.(t mod nb) data.(b.open_ix.(t / nb))
  end

(* The buffer closure of [curve]: push every solution as it is (copied
   column to column inside Curve, solution i named i), then every
   (solution, buffer) trial on a root that takes one, in that
   order — so equal-cost ties resolve exactly as they did when the
   candidates were added one by one into the existing curve — except
   the trials another trial of the same buffer provably beats.  All
   trials of one buffer have its input capacitance as their load,
   so trial i loses to trial k when k's quantised req is at least and
   its area at most i's, and k differs or was pushed first (k < i).
   Each trial is costed once, into the scratch columns (root oi, buffer
   bi at oi * nb + bi), and pushed from there through [cost]: dune's dev
   profile compiles with -opaque, so Curve.Builder.push is a real call
   here and would box its float arguments. *)
let close b ~rebuffer curve =
  let n = Curve.size curve and subset = b.subset in
  let nb = Array.length subset in
  let { bld; cost; quant; _ } = b in
  Curve.Builder.clear bld;
  Curve.Builder.add_positions bld curve;
  b.open_ix <- grow_ints b.open_ix n;
  let open_ix = b.open_ix and n_open = ref 0 in
  for i = 0 to n - 1 do
    if rebuffer || not (Build.buffered_root curve.Curve.data.(i)) then begin
      open_ix.(!n_open) <- i;
      incr n_open
    end
  done;
  let n_open = !n_open in
  let nt = n_open * nb in
  if Float.Array.length b.trial_req < nt then begin
    b.trial_req <- Float.Array.create (2 * nt);
    b.trial_load <- Float.Array.create (2 * nt);
    b.trial_area <- Float.Array.create (2 * nt);
    b.trial_beaten <- Array.make (2 * nt) false
  end;
  let treq = b.trial_req and tload = b.trial_load
  and tarea = b.trial_area and beaten = b.trial_beaten in
  for oi = 0 to n_open - 1 do
    let i = open_ix.(oi) in
    for bi = 0 to nb - 1 do
      Build.add_root_buffer_cost_into cost subset.(bi) curve i;
      quantise_cost quant cost;
      let t = (oi * nb) + bi in
      Float.Array.set treq t cost.Curve.Builder.creq;
      Float.Array.set tload t cost.Curve.Builder.cload;
      Float.Array.set tarea t cost.Curve.Builder.carea
    done
  done;
  for bi = 0 to nb - 1 do
    for oi = 0 to n_open - 1 do
      let t = (oi * nb) + bi in
      let r = Float.Array.get treq t and a = Float.Array.get tarea t in
      let lost = ref false and ok = ref 0 in
      while (not !lost) && !ok < n_open do
        let tk = (!ok * nb) + bi in
        let rk = Float.Array.get treq tk and ak = Float.Array.get tarea tk in
        if rk >= r && ak <= a && (rk > r || ak < a || !ok < oi) then
          lost := true;
        incr ok
      done;
      beaten.(t) <- !lost
    done
  done;
  let pushed = ref 0 in
  for t = 0 to nt - 1 do
    if not beaten.(t) then begin
      incr pushed;
      cost.Curve.Builder.creq <- Float.Array.get treq t;
      cost.Curve.Builder.cload <- Float.Array.get tload t;
      cost.Curve.Builder.carea <- Float.Array.get tarea t;
      Curve.Builder.push_cost bld cost (n + t)
    end
  done;
  b.pushed <- !pushed;
  b.filtered <- nt - !pushed;
  Curve.Builder.build_map ~name:"Batch.close" ~max_size:b.max_curve bld
    ~f:(close_data b curve)
