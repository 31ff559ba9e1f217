(* Array-backed frontier kernel.

   A curve is a sorted (Solution.compare_key), pairwise non-dominated
   set of points stored as columns: three floatarrays (req, load,
   area), whose floats sit unboxed, and one payload array, all of the
   curve's size.  The empty curve has zero-length columns; [empty] is a
   record of constants, so it generalises like a constructor would.

   The batch path is [Builder]: candidates accumulate into
   structure-of-arrays floatarray storage (req/load/area) plus a data
   array, and [Builder.build] prunes the whole bag at once with one
   stable sort and one staircase sweep, then picks at most [max_size]
   of the survivors and copies only those into the curve's columns.
   The sort reads the columns in place through one inlined key test,
   with no comparator closure, and a build on a warm builder allocates
   only the curve it returns (and what its [f] allocates).
   The sweep exploits the key order (req descending, then load, then
   area ascending): a processed point can only be dominated by an
   earlier one, and a kept point is never invalidated later, so
   maintaining the 2-D (load, area) minima staircase of the kept points
   answers every dominance query with a binary search.  Cost: O(P log P) for the sort plus O(log F) per
   query and O(F) per staircase insertion (F = frontier size, F << P
   in the DP hot paths).  It is the only way to build a multi-solution
   curve. *)

type 'a t = {
  req : floatarray;
  load : floatarray;
  area : floatarray;
  data : 'a array;
}

let no_floats = Float.Array.create 0

let empty = { req = no_floats; load = no_floats; area = no_floats; data = [||] }

let size c = Array.length c.data

let is_empty c = size c = 0

let singleton (s : 'a Solution.t) =
  { req = Float.Array.make 1 s.Solution.req;
    load = Float.Array.make 1 s.Solution.load;
    area = Float.Array.make 1 s.Solution.area;
    data = [| s.Solution.data |] }

(* The one-point view: a fresh Solution.t, for the cold paths. *)
let get c i =
  Solution.make ~req:(Float.Array.get c.req i) ~load:(Float.Array.get c.load i)
    ~area:(Float.Array.get c.area i) c.data.(i)

let of_columns req load area data = { req; load; area; data }

module Builder = struct
  type 'a b = {
    mutable req : floatarray;
    mutable load : floatarray;
    mutable area : floatarray;
    mutable data : 'a array; (* empty until the first push, then >= len *)
    mutable len : int;
    (* Build-time scratch, owned by the builder so a cleared and reused
       builder allocates nothing on the next build (grow-only).  [keys]
       holds the sorted push indices, [keep] the surviving ones,
       [st_load]/[st_area] the staircase and [pick] the [max_size]
       selection (positions into [keep]); [kept] is the last build's
       frontier width. *)
    mutable keys : int array;
    mutable tmp : int array;
    mutable keep : int array;
    mutable st_load : floatarray;
    mutable st_area : floatarray;
    mutable pick : int array;
    mutable kept : int;
  }

  let create ?(hint = 16) () =
    let hint = max 4 hint in
    { req = Float.Array.create hint;
      load = Float.Array.create hint;
      area = Float.Array.create hint;
      data = [||];
      len = 0;
      keys = [||];
      tmp = [||];
      keep = [||];
      st_load = Float.Array.create 0;
      st_area = Float.Array.create 0;
      pick = [||];
      kept = 0 }

  let kept b = b.kept

  (* [clear] keeps all storage (including payload references past the
     new length, until they are overwritten by later pushes — scratch
     builders hold whatever the hot path last routed, never less). *)
  let clear b = b.len <- 0

  (* Ensure room for one more element; [elt] seeds the data array (an
     'a array cannot grow without a fill element). *)
  let reserve b elt =
    let cap = Float.Array.length b.req in
    if b.len = cap then begin
      let ncap = 2 * cap in
      let grow a =
        let n = Float.Array.create ncap in
        Float.Array.blit a 0 n 0 b.len;
        n
      in
      b.req <- grow b.req;
      b.load <- grow b.load;
      b.area <- grow b.area
    end;
    let cap = Float.Array.length b.req in
    if Array.length b.data < cap then begin
      let nd = Array.make cap elt in
      Array.blit b.data 0 nd 0 b.len;
      b.data <- nd
    end

  (* Inlined into the DP push sites so the float coordinates reach the
     floatarray stores unboxed instead of boxing at the call. *)
  let[@inline] push b ~req ~load ~area data =
    reserve b data;
    Float.Array.set b.req b.len req;
    Float.Array.set b.load b.len load;
    Float.Array.set b.area b.len area;
    b.data.(b.len) <- data;
    b.len <- b.len + 1

  (* Boxing-free coordinate hand-off for the DP hot paths: an all-float
     record is flat (fields stored unboxed), so a cost writer fills it
     with plain float stores and [push_cost] moves the fields straight
     into the floatarray columns — no (req, load, area) tuple and no
     boxed floats per candidate, which the non-flambda compiler cannot
     eliminate on its own at a function boundary. *)
  type cost = { mutable creq : float; mutable cload : float; mutable carea : float }

  let new_cost () = { creq = 0.0; cload = 0.0; carea = 0.0 }

  let push_cost b (c : cost) data =
    reserve b data;
    Float.Array.set b.req b.len c.creq;
    Float.Array.set b.load b.len c.cload;
    Float.Array.set b.area b.len c.carea;
    b.data.(b.len) <- data;
    b.len <- b.len + 1

  let add b (s : 'a Solution.t) =
    push b ~req:s.Solution.req ~load:s.Solution.load ~area:s.Solution.area
      s.Solution.data

  (* Column-to-column copies: the floats move from one floatarray to
     another without boxing, which a caller outside this module could
     not do through [push] (dune's dev profile compiles with -opaque). *)
  let add_curve b c =
    for i = 0 to size c - 1 do
      push b ~req:(Float.Array.get c.req i) ~load:(Float.Array.get c.load i)
        ~area:(Float.Array.get c.area i) c.data.(i)
    done

  let add_positions b c =
    for i = 0 to size c - 1 do
      push b ~req:(Float.Array.get c.req i) ~load:(Float.Array.get c.load i)
        ~area:(Float.Array.get c.area i) i
    done

  (* Grow the sweep scratch to the push-storage capacity (>= len) in one
     step, so a long-lived builder reaches a fixed point and later
     builds allocate nothing here. *)
  let ensure_scratch b =
    let cap = Float.Array.length b.req in
    if Array.length b.keys < cap then begin
      b.keys <- Array.make cap 0;
      b.tmp <- Array.make cap 0;
      b.keep <- Array.make cap 0;
      b.st_load <- Float.Array.create cap;
      b.st_area <- Float.Array.create cap
    end

  (* The key order as one boolean test, [Float.compare] semantics
     spelled out: push [i] sorts after push [j] when its req is lower,
     or on equal req its load is higher, or on equal load its area is
     higher, or on equal coordinates it was pushed later.  The ordered
     comparisons decide the common case; only when neither holds and
     the two floats are not equal is a nan involved, which
     [Float.compare] puts below every other float and equal to itself.
     Inlined into [sort_idx], so a comparison is a few float tests on
     the columns and not an indirect call to a per-build closure (the
     non-flambda compiler calls a closure argument indirectly). *)
  let[@inline] area_after area i j =
    let x = Float.Array.get area i and y = Float.Array.get area j in
    if x > y then true
    else if x < y then false
    else if x = y || (x <> x && y <> y) then i > j
    else y <> y

  let[@inline] load_after load area i j =
    let x = Float.Array.get load i and y = Float.Array.get load j in
    if x > y then true
    else if x < y then false
    else if x = y || (x <> x && y <> y) then area_after area i j
    else y <> y

  let[@inline] sorts_after req load area i j =
    let x = Float.Array.get req i and y = Float.Array.get req j in
    if x < y then true
    else if x > y then false
    else if x = y || (x <> x && y <> y) then load_after load area i j
    else x <> x

  (* Ascending bottom-up merge sort of [keys.(0 .. n-1)] in key order
     ([sorts_after] over the columns), merging back and forth between
     [keys] and the builder-owned [tmp] scratch.  Hand-written because
     the stdlib cannot sort a prefix of a larger scratch array, and
     [Array.stable_sort] allocates a fresh run buffer per call.  The
     key test breaks every tie on the push index, so the order is total
     and the sort allocates nothing.  Small runs are seeded with an
     insertion-sort pass, like the stdlib's cutoff. *)
  let sort_idx keys tmp n req load area =
    let run = 16 in
    let lo = ref 0 in
    while !lo < n do
      let hi = min n (!lo + run) in
      for i = !lo + 1 to hi - 1 do
        let v = keys.(i) in
        let j = ref i in
        while !j > !lo && sorts_after req load area keys.(!j - 1) v do
          keys.(!j) <- keys.(!j - 1);
          decr j
        done;
        keys.(!j) <- v
      done;
      lo := hi
    done;
    let src = ref keys and dst = ref tmp in
    let width = ref run in
    while !width < n do
      let s = !src and d = !dst in
      let lo = ref 0 in
      while !lo < n do
        let mid = min n (!lo + !width) in
        let hi = min n (mid + !width) in
        let i = ref !lo and j = ref mid and w = ref !lo in
        while !i < mid && !j < hi do
          if not (sorts_after req load area s.(!i) s.(!j)) then begin
            d.(!w) <- s.(!i);
            incr i
          end
          else begin
            d.(!w) <- s.(!j);
            incr j
          end;
          incr w
        done;
        while !i < mid do
          d.(!w) <- s.(!i);
          incr i;
          incr w
        done;
        while !j < hi do
          d.(!w) <- s.(!j);
          incr j;
          incr w
        done;
        lo := hi
      done;
      let t = !src in
      src := !dst;
      dst := t;
      width := 2 * !width
    done;
    if !src != keys then Array.blit !src 0 keys 0 n (* check: physical-eq *)

  (* [keys.(0 .. len-1)] := the push indices in key order. *)
  let sort_keys b =
    ensure_scratch b;
    for i = 0 to b.len - 1 do
      b.keys.(i) <- i
    done;
    sort_idx b.keys b.tmp b.len b.req b.load b.area

  let sort_order b =
    sort_keys b;
    Array.sub b.keys 0 b.len

  (* The first position into [keep.(0 .. nkeep-1)] whose point has the
     least [col] value. *)
  let argmin col keep nkeep =
    let best = ref 0 in
    for t = 1 to nkeep - 1 do
      if Float.Array.get col keep.(t) < Float.Array.get col keep.(!best) then
        best := t
    done;
    !best

  (* The [max_size] selection over the [nkeep] kept points, written to
     [pick] as ascending, distinct positions into [keep]; returns how
     many.  Keep the extreme point of each dimension (best required
     time, least load, least area) and the last point, spread the rest
     evenly along the required-time axis, and for very small caps, where
     the four extremes may overflow, truncate in curve order. *)
  let select b nkeep max_size =
    let spread = max 0 (max_size - 4) in
    let np = 4 + spread in
    if Array.length b.pick < np then b.pick <- Array.make np 0;
    let pick = b.pick and keep = b.keep in
    pick.(0) <- 0;
    pick.(1) <- argmin b.load keep nkeep;
    pick.(2) <- argmin b.area keep nkeep;
    pick.(3) <- nkeep - 1;
    for k = 0 to spread - 1 do
      pick.(4 + k) <- 1 + (k * (nkeep - 2) / spread)
    done;
    for i = 1 to np - 1 do
      let v = pick.(i) in
      let j = ref i in
      while !j > 0 && pick.(!j - 1) > v do
        pick.(!j) <- pick.(!j - 1);
        decr j
      done;
      pick.(!j) <- v
    done;
    let m = ref 1 in
    for i = 1 to np - 1 do
      if pick.(i) <> pick.(!m - 1) then begin
        pick.(!m) <- pick.(i);
        incr m
      end
    done;
    min !m max_size

  (* One sort + one staircase sweep over the accumulated bag, then the
     [max_size] selection; [f] materialises the payload of each returned
     point only.  Ties (equal coordinate keys) keep the earliest push. *)
  let build_map ?(name = "Curve.Builder.build") ?max_size ~f b =
    (match max_size with
     | Some m when m < 2 -> invalid_arg "Curve.Builder.build: max_size < 2"
     | Some _ | None -> ());
    let n = b.len in
    b.kept <- 0;
    if n = 0 then empty
    else begin
      sort_keys b;
      let req = b.req and load = b.load and area = b.area in
      (* Staircase of the kept points' (load, area) minima: load strictly
         increasing, area strictly decreasing. *)
      let st_load = b.st_load and st_area = b.st_area in
      let st_len = ref 0 in
      let keep = b.keep in
      let nkeep = ref 0 in
      for t = 0 to n - 1 do
        let i = b.keys.(t) in
        let l = Float.Array.get load i and a = Float.Array.get area i in
        (* Rightmost staircase entry with load <= l (all kept points have
           req >= this one's, so load/area decide dominance). *)
        let p =
          let lo = ref 0 and hi = ref !st_len in
          while !lo < !hi do
            let mid = (!lo + !hi) / 2 in
            if Float.Array.get st_load mid <= l then lo := mid + 1
            else hi := mid
          done;
          !lo - 1
        in
        let dominated = p >= 0 && Float.Array.get st_area p <= a in
        if not dominated then begin
          keep.(!nkeep) <- i;
          incr nkeep;
          (* Insert (l, a): entries with load >= l and area >= a are now
             redundant; areas decrease rightward so they form a run. *)
          let q =
            if p >= 0 && Float.Array.get st_load p = l then p else p + 1
          in
          let r = ref q in
          while !r < !st_len && Float.Array.get st_area !r >= a do incr r done;
          let removed = !r - q in
          if removed = 0 then begin
            Float.Array.blit st_load q st_load (q + 1) (!st_len - q);
            Float.Array.blit st_area q st_area (q + 1) (!st_len - q);
            incr st_len
          end
          else if removed > 1 then begin
            Float.Array.blit st_load !r st_load (q + 1) (!st_len - !r);
            Float.Array.blit st_area !r st_area (q + 1) (!st_len - !r);
            st_len := !st_len - removed + 1
          end;
          Float.Array.set st_load q l;
          Float.Array.set st_area q a
        end
      done;
      let nkeep = !nkeep in
      b.kept <- nkeep;
      (* The returned points: all kept ones, or the [max_size]
         selection, moved to the front of [keep] (its positions ascend,
         so each is read before it is overwritten). *)
      let np =
        match max_size with
        | Some m when nkeep > m ->
          let np = select b nkeep m in
          for t = 0 to np - 1 do
            keep.(t) <- keep.(b.pick.(t))
          done;
          np
        | Some _ | None -> nkeep
      in
      let oreq = Float.Array.create np and oload = Float.Array.create np
      and oarea = Float.Array.create np in
      for t = 0 to np - 1 do
        let i = keep.(t) in
        Float.Array.set oreq t (Float.Array.get req i);
        Float.Array.set oload t (Float.Array.get load i);
        Float.Array.set oarea t (Float.Array.get area i)
      done;
      Contract.check ~name oreq oload oarea;
      (* [Array.init] would take a closure over [f] and the builder. *)
      let data = b.data in
      let odata = Array.make np (f data.(keep.(0))) in
      for t = 1 to np - 1 do
        odata.(t) <- f data.(keep.(t))
      done;
      of_columns oreq oload oarea odata
    end

  let build ?name ?max_size b = build_map ?name ?max_size ~f:Fun.id b
end

(* Only the payloads change: the float columns are shared. *)
let map_data f c = { c with data = Array.map f c.data }

let best_req c = if is_empty c then None else Some (get c 0)

(* Curve order is req-descending, so the first fitting point wins. *)
let best_under_area c ~area =
  let n = size c in
  let rec find i =
    if i >= n then None
    else if Float.Array.get c.area i <= area then Some (get c i)
    else find (i + 1)
  in
  find 0

(* The curve is req-descending: stop at the first point below the floor
   instead of scanning the whole frontier.  Ties on area keep the
   earlier point. *)
let best_min_area c ~req =
  let n = size c in
  let rec scan i best =
    if i >= n || Float.Array.get c.req i < req then best
    else
      scan (i + 1)
        (if best >= 0 && Float.Array.get c.area best <= Float.Array.get c.area i
         then best
         else i)
  in
  let best = scan 0 (-1) in
  if best < 0 then None else Some (get c best)
