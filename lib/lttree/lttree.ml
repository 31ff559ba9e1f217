open Merlin_tech
open Merlin_net
open Merlin_curves

type chain = {
  buffer : Buffer_lib.buffer;
  directs : Sink.t list;
  chain : chain option;
}

type plan = { root_directs : Sink.t list; root_chain : chain option }

let rec chain_sinks c =
  c.directs @ (match c.chain with None -> [] | Some sub -> chain_sinks sub)

let plan_sinks p =
  p.root_directs
  @ (match p.root_chain with None -> [] | Some c -> chain_sinks c)

let rec chain_area c =
  c.buffer.Buffer_lib.area
  +. (match c.chain with None -> 0.0 | Some sub -> chain_area sub)

let plan_area p =
  match p.root_chain with None -> 0.0 | Some c -> chain_area c

let n_levels p =
  let rec depth = function None -> 0 | Some c -> 1 + depth c.chain in
  1 + depth p.root_chain

(* The LT-Tree-I DP runs over suffixes of the required-time-sorted sink
   array.  Cell k (1 <= k < n) holds the curve of chain links driving
   sinks k..n-1: a link picks its direct group k..j, a buffer to drive
   (group + next link), and recurses on cell j+1.  The root (the driver)
   picks a group 0..j plus optionally a point of cell j+1.

   Only the best required time at the driver is wanted, so the DP is
   bounded by the answer (DESIGN.md §"LTTREE bound"): pass 1 keeps one
   best req per cell and buffer, which yields the optimal required time
   R* at the driver; pass 2 runs the full (req, load, area) cells but
   pushes a link candidate only if its req reaches R* plus the smallest
   delay a prefix plan that can still reach R* adds above it.  Pass 2
   points carry an int payload (next point, group end, buffer), and only
   the winner's chain records are ever built. *)

(* Payload of a cell point: its buffer, the end j of its direct group
   and the index of its next link in cell j+1 (0 when j = n-1). *)
let encode ~n ~nb ~next ~j ~b = (((next * n) + j) * nb) + b

let decode ~n ~nb code = (code / nb / n, code / nb mod n, code mod nb)

(* Per-level slack of the link floors as a fraction of the magnitudes in
   play: 2^-45 is 256 unit roundoffs, an order of magnitude above the
   rounding gap DESIGN.md §"LTTREE bound" derives. *)
let margin_rel = 0x1p-45

let best ~buffers ~max_fanout ~driver sinks =
  (match sinks with
   | [] -> invalid_arg "Lttree.best: no sinks"
   | _ :: _ -> ());
  if max_fanout < 2 then invalid_arg "Lttree.best: max_fanout < 2";
  let arr =
    Array.of_list
      (List.sort (fun a b -> Float.compare a.Sink.req b.Sink.req) sinks)
  in
  let n = Array.length arr and nb = Array.length buffers in
  let group i j = Array.to_list (Array.sub arr i (j - i + 1)) in
  let group_load i j =
    let total = ref 0.0 in
    for t = i to j do total := !total +. arr.(t).Sink.cap done;
    !total
  in
  (* A level with direct group i..j drives its sinks plus the next link
     unless the group reaches the end. *)
  let fits i j = j - i + 1 + (if j = n - 1 then 0 else 1) <= max_fanout in
  (* [levels cells i f] calls [f ~j ~next ~req ~load ~area] for every
     (direct group i..j, point [next] of cell j+1) pair a level at cell i
     (the root at i = 0) can take, with the req, load and area of the
     group joined with that point, before the level's own gate. *)
  let levels cells i f =
    let d_req = arr.(i).Sink.req in
    for j = i to min (n - 1) (i + max_fanout - 1) do
      if fits i j then begin
        let d_load = group_load i j in
        if j = n - 1 then f ~j ~next:0 ~req:d_req ~load:d_load ~area:0.0
        else
          Array.iteri
            (fun next (s : int Solution.t) ->
               let r = s.Solution.req in
               f ~j ~next
                 ~req:(if d_req <= r then d_req else r)
                 ~load:(d_load +. s.Solution.load) ~area:s.Solution.area)
            cells.(j + 1)
      end
    done
  in
  (* Pass 1: R*.  A pass-1 cell keeps, per buffer, the best req a link
     driven by it presents (its load is the buffer's input cap, its area
     0): a superset of the cell's (req, load) frontier.  Every DP step is
     monotone — more req in, no less out; more load in, no less delay —
     so the best value at the driver is the optimal plan's own value,
     reached through the same float operations. *)
  let top = Array.make (n + 1) [||] in
  for i = n - 1 downto 1 do
    let row = Array.make nb neg_infinity in
    levels top i (fun ~j:_ ~next:_ ~req ~load ~area:_ ->
        for b = 0 to nb - 1 do
          let r = req -. Buffer_lib.delay buffers.(b) ~load in
          if r > row.(b) then row.(b) <- r
        done);
    top.(i) <-
      Array.mapi
        (fun b req ->
           Solution.make ~req ~load:buffers.(b).Buffer_lib.input_cap ~area:0.0 b)
        row
  done;
  let r_star = ref neg_infinity in
  levels top 0 (fun ~j:_ ~next:_ ~req ~load ~area:_ ->
      r_star := Float.max !r_star (req -. Delay_model.delay driver ~load));
  let r_star = !r_star in
  (* Link floors, top-down.  dmin.(k).(b) is the smallest delay from the
     input of a link at cell k driven by buffer b (load its input cap) up
     to the driver's output, over the prefix plans that can still reach
     R*: a level whose own group misses its floor cannot be on one.  Each
     term uses the float operations of the DP itself.  A link candidate
     at cell k is kept iff its req reaches floors.(k).(b). *)
  let scale =
    Array.fold_left
      (fun a s -> Float.max a (Float.abs s.Sink.req))
      (Float.abs r_star) arr
  in
  let dmin = Array.make_matrix (n + 1) nb infinity in
  let floors = Array.make_matrix (n + 1) nb infinity in
  for k = 1 to n - 1 do
    let margin = margin_rel *. scale *. float_of_int k in
    for b = 0 to nb - 1 do
      let l = buffers.(b).Buffer_lib.input_cap in
      let lo = ref infinity in
      if k + 1 <= max_fanout then begin
        let gate = Delay_model.delay driver ~load:(group_load 0 (k - 1) +. l) in
        if arr.(0).Sink.req -. gate >= r_star then lo := gate
      end;
      for i = max 1 (k - max_fanout + 1) to k - 1 do
        let load = group_load i (k - 1) +. l and d_req = arr.(i).Sink.req in
        for b' = 0 to nb - 1 do
          let floor = floors.(i).(b') in
          if floor < infinity then begin
            let d = Buffer_lib.delay buffers.(b') ~load in
            if d_req -. d >= floor then begin
              let total = d +. dmin.(i).(b') in
              if total < !lo then lo := total
            end
          end
        done
      done;
      dmin.(k).(b) <- !lo;
      floors.(k).(b) <- r_star +. !lo -. margin
    done
  done;
  (* Pass 2: the (req, load, area) cells n-1 .. 1, bottom-up so one
     cleared builder serves every cell, pushing only candidates that
     reach their floor. *)
  let memo = Array.make (n + 1) [||] in
  let bld = Curve.Builder.create () in
  for i = n - 1 downto 1 do
    Curve.Builder.clear bld;
    let floor = floors.(i) in
    levels memo i (fun ~j ~next ~req ~load ~area ->
        for b = 0 to nb - 1 do
          let buf = buffers.(b) in
          let breq = req -. Buffer_lib.delay buf ~load in
          if breq >= floor.(b) then
            Curve.Builder.push bld ~req:breq ~load:buf.Buffer_lib.input_cap
              ~area:(area +. buf.Buffer_lib.area)
              (encode ~n ~nb ~next ~j ~b)
        done);
    let c = Curve.Builder.build ~name:"Lttree.links" bld in
    memo.(i) <- Array.init (Curve.size c) (Curve.get c)
  done;
  (* Root: among the candidates that reach R*, the one with the least
     load, then area, then the most req before the gate, the earliest on
     a full tie — the point the unbounded DP's root curve, shifted by
     the gate delay, has first. *)
  let found = ref None in
  levels memo 0 (fun ~j ~next ~req ~load ~area ->
      let value = req -. Delay_model.delay driver ~load in
      if value >= r_star then begin
        let better =
          match !found with
          | None -> true
          | Some (bv, bl, ba, br, _, _) ->
            value > bv
            || (value = bv
                && (load < bl
                    || (load = bl && (area < ba || (area = ba && req > br)))))
        in
        if better then found := Some (value, load, area, req, j, next)
      end);
  let value, load, area, j, next =
    match !found with
    | Some (value, load, area, _, j, next) -> (value, load, area, j, next)
    | None -> assert false (* the optimal plan itself reaches R* *)
  in
  let rec link k idx =
    let next, j, b = decode ~n ~nb memo.(k).(idx).Solution.data in
    { buffer = buffers.(b);
      directs = group k j;
      chain = (if j = n - 1 then None else Some (link (j + 1) next)) }
  in
  Solution.make ~req:value ~load ~area
    { root_directs = group 0 j;
      root_chain = (if j = n - 1 then None else Some (link (j + 1) next)) }
