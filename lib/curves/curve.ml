(* Array-backed frontier kernel.

   A curve is a sorted (Solution.compare_key), pairwise non-dominated
   array of solutions.  The empty curve is its own constructor so the
   polymorphic [empty] constant generalises (a bare [|]|] would be
   weakly typed under the value restriction); every non-empty curve
   carries a non-empty array.

   The batch path is [Builder]: candidates accumulate into
   structure-of-arrays floatarray storage (req/load/area) plus a data
   array, and [Builder.build] prunes the whole bag at once with one
   stable sort and one staircase sweep.  The sweep exploits the key
   order (req descending, then load, then area ascending): a processed
   point can only be dominated by an earlier one, and a kept point is
   never invalidated later, so maintaining the 2-D (load, area) minima
   staircase of the kept points answers every dominance query with a
   binary search.  Cost: O(P log P) for the sort plus O(log F) per
   query and O(F) per staircase insertion (F = frontier size, F << P
   in the DP hot paths).  It is the only way to build a multi-solution
   curve. *)

type 'a t =
  | Empty
  | F of 'a Solution.t array

let empty = Empty

let is_empty = function Empty -> true | F _ -> false

let size = function Empty -> 0 | F arr -> Array.length arr

let singleton s = F [| s |]

let to_array = function Empty -> [||] | F arr -> arr

let to_list c = Array.to_list (to_array c)

module Builder = struct
  type 'a b = {
    mutable req : floatarray;
    mutable load : floatarray;
    mutable area : floatarray;
    mutable data : 'a array; (* empty until the first push, then >= len *)
    mutable len : int;
    (* Build-time scratch, owned by the builder so a cleared and reused
       builder allocates nothing on the next build (grow-only; sized to
       the push-storage capacity in one step).  [qreq]/[qload]/[qarea]
       hold the quantised coordinates, [rb]/[lb]/[ab] their integer
       buckets for the packed sort path, [keys] the sort keys, [keep]
       the surviving indices and [st_load]/[st_area] the staircase. *)
    mutable qreq : floatarray;
    mutable qload : floatarray;
    mutable qarea : floatarray;
    mutable rb : int array;
    mutable lb : int array;
    mutable ab : int array;
    mutable keys : int array;
    mutable tmp : int array;
    mutable keep : int array;
    mutable st_load : floatarray;
    mutable st_area : floatarray;
  }

  let create ?(hint = 16) () =
    let hint = max 4 hint in
    { req = Float.Array.create hint;
      load = Float.Array.create hint;
      area = Float.Array.create hint;
      data = [||];
      len = 0;
      qreq = Float.Array.create 0;
      qload = Float.Array.create 0;
      qarea = Float.Array.create 0;
      rb = [||];
      lb = [||];
      ab = [||];
      keys = [||];
      tmp = [||];
      keep = [||];
      st_load = Float.Array.create 0;
      st_area = Float.Array.create 0 }

  let length b = b.len

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

  let add_curve b c =
    match c with Empty -> () | F arr -> Array.iter (add b) arr

  (* Grow every scratch array to the push-storage capacity (>= len) in
     one step, so a long-lived builder reaches a fixed point and later
     builds allocate nothing here. *)
  let ensure_scratch b =
    let cap = Float.Array.length b.req in
    if Array.length b.keys < cap then begin
      b.qreq <- Float.Array.create cap;
      b.qload <- Float.Array.create cap;
      b.qarea <- Float.Array.create cap;
      b.rb <- Array.make cap 0;
      b.lb <- Array.make cap 0;
      b.ab <- Array.make cap 0;
      b.keys <- Array.make cap 0;
      b.tmp <- Array.make cap 0;
      b.keep <- Array.make cap 0;
      b.st_load <- Float.Array.create cap;
      b.st_area <- Float.Array.create cap
    end

  (* Ascending bottom-up merge sort of [keys.(0 .. n-1)] with direct
     (monomorphic, inlinable) int comparisons, merging back and forth
     between [keys] and the builder-owned [tmp] scratch — the packed-key
     sort path.  Hand-written because the stdlib cannot sort a prefix of
     a larger scratch array, and [Array.stable_sort] allocates a fresh
     run buffer per call; direct int compares are also markedly faster
     than going through a comparator closure.  Small runs are seeded
     with a binary-insertion pass, like the stdlib's cutoff. *)
  let sort_ints keys tmp n =
    let run = 16 in
    let lo = ref 0 in
    while !lo < n do
      let hi = min n (!lo + run) in
      for i = !lo + 1 to hi - 1 do
        let v = keys.(i) in
        let j = ref i in
        while !j > !lo && keys.(!j - 1) > v do
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
          if s.(!i) <= s.(!j) then begin
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

  (* The same bottom-up merge sort under a comparator closure — the
     fallback for un- or partially-quantised builds, whose keys live in
     the coordinate floatarrays.  Stable (merges keep the left run on
     ties), and the comparator also tie-breaks on the push index, so
     both sort paths reproduce a stable sort of the coordinate keys. *)
  let sort_idx keys tmp n cmp =
    let run = 16 in
    let lo = ref 0 in
    while !lo < n do
      let hi = min n (!lo + run) in
      for i = !lo + 1 to hi - 1 do
        let v = keys.(i) in
        let j = ref i in
        while !j > !lo && cmp keys.(!j - 1) v > 0 do
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
          if cmp s.(!i) s.(!j) <= 0 then begin
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

  (* Quantisation buckets stay bit-exact and order-preserving as ints as
     long as |bucket| stays far below 2^53: [float_of_int] is exact and
     [f *. grid] is strictly monotone in f (adjacent multiples differ by
     [grid], rounding error is ~|f*grid|*2^-53, so collapses need
     |f| ~ 2^52).  2^45 leaves a wide margin and bounds the packed bit
     budget.  Negative zero is rejected: its bucket would collide with
     +0.0's while [Float.compare] separates them. *)
  let bucket_limit = 0x2000_0000_0000p0 (* 2^45 *)

  let bucket_ok f =
    Float.abs f <= bucket_limit && not (f = 0.0 && 1.0 /. f < 0.0)

  (* Smallest width such that [v < 2^width] ([v >= 0]). *)
  let bits v =
    let rec go acc v = if v = 0 then acc else go (acc + 1) (v lsr 1) in
    go 0 v

  (* One sort + one staircase sweep over the accumulated bag.  Ties
     (equal coordinate keys) keep the earliest push.  [grids] quantises every
     coordinate before the sweep (the per-candidate quantisation of the
     DP cores, fused into the batch pass).

     With all three grids positive the sort runs on one packed int key
     per candidate — (req desc, load asc, area asc, push index) offset
     into disjoint bit fields — instead of chasing three floatarrays
     through a comparator; the float comparator remains as the fallback
     for un- or partially-quantised builds and for out-of-range buckets,
     and orders identically (DESIGN.md §9). *)
  let build ?(name = "Curve.Builder.build") ?(grids = (0.0, 0.0, 0.0)) b =
    let n = b.len in
    if n = 0 then Empty
    else begin
      ensure_scratch b;
      let req_grid, load_grid, area_grid = grids in
      let quantised =
        req_grid <> 0.0 || load_grid <> 0.0 || area_grid <> 0.0
      in
      let qreq = if quantised then b.qreq else b.req in
      let qload = if quantised then b.qload else b.load in
      let qarea = if quantised then b.qarea else b.area in
      (* Pass 1: quantise into the q scratch; when all grids are
         positive, also derive the integer buckets (same divisions, so
         [bucket *. grid] reproduces grid_down/grid_up bit-exactly). *)
      let packed = ref (req_grid > 0.0 && load_grid > 0.0 && area_grid > 0.0) in
      let minr = ref max_int and maxr = ref min_int in
      let minl = ref max_int and maxl = ref min_int in
      let mina = ref max_int and maxa = ref min_int in
      if !packed then begin
        let i = ref 0 in
        while !packed && !i < n do
          let fr = Float.floor (Float.Array.get b.req !i /. req_grid) in
          let fl = Float.ceil (Float.Array.get b.load !i /. load_grid) in
          let fa = Float.ceil (Float.Array.get b.area !i /. area_grid) in
          if not (bucket_ok fr && bucket_ok fl && bucket_ok fa) then
            packed := false
          else begin
            Float.Array.set qreq !i (fr *. req_grid);
            Float.Array.set qload !i (fl *. load_grid);
            Float.Array.set qarea !i (fa *. area_grid);
            let ri = int_of_float fr in
            let li = int_of_float fl in
            let ai = int_of_float fa in
            b.rb.(!i) <- ri;
            b.lb.(!i) <- li;
            b.ab.(!i) <- ai;
            if ri < !minr then minr := ri;
            if ri > !maxr then maxr := ri;
            if li < !minl then minl := li;
            if li > !maxl then maxl := li;
            if ai < !mina then mina := ai;
            if ai > !maxa then maxa := ai
          end;
          incr i
        done
      end;
      if (not !packed) && quantised then
        for i = 0 to n - 1 do
          Float.Array.set qreq i
            (Solution.grid_down req_grid (Float.Array.get b.req i));
          Float.Array.set qload i
            (Solution.grid_up load_grid (Float.Array.get b.load i));
          Float.Array.set qarea i
            (Solution.grid_up area_grid (Float.Array.get b.area i))
        done;
      let bi = bits (n - 1) in
      let use_packed =
        !packed
        && bits (!maxr - !minr) + bits (!maxl - !minl) + bits (!maxa - !mina)
           + bi
           <= 62
      in
      if use_packed then begin
        (* Field layout, most significant first: req (inverted so the
           ascending int sort yields req-descending), load, area, push
           index.  All fields are offset to start at 0, so the key is a
           non-negative int and plain int comparison is the full
           lexicographic order. *)
        let sa = bi in
        let sl = sa + bits (!maxa - !mina) in
        let sr = sl + bits (!maxl - !minl) in
        for i = 0 to n - 1 do
          b.keys.(i) <-
            ((!maxr - b.rb.(i)) lsl sr)
            lor ((b.lb.(i) - !minl) lsl sl)
            lor ((b.ab.(i) - !mina) lsl sa)
            lor i
        done;
        sort_ints b.keys b.tmp n
      end
      else begin
        for i = 0 to n - 1 do
          b.keys.(i) <- i
        done;
        sort_idx b.keys b.tmp n (fun i j ->
            let c =
              Float.compare (Float.Array.get qreq j) (Float.Array.get qreq i)
            in
            if c <> 0 then c
            else
              let c =
                Float.compare (Float.Array.get qload i)
                  (Float.Array.get qload j)
              in
              if c <> 0 then c
              else
                let c =
                  Float.compare (Float.Array.get qarea i)
                    (Float.Array.get qarea j)
                in
                if c <> 0 then c else Int.compare i j)
      end;
      let imask = (1 lsl bi) - 1 in
      (* Staircase of the kept points' (load, area) minima: load strictly
         increasing, area strictly decreasing. *)
      let st_load = b.st_load and st_area = b.st_area in
      let st_len = ref 0 in
      let keep = b.keep in
      let nkeep = ref 0 in
      for t = 0 to n - 1 do
        let i = if use_packed then b.keys.(t) land imask else b.keys.(t) in
        let l = Float.Array.get qload i and a = Float.Array.get qarea i in
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
      let out =
        Array.init !nkeep (fun t ->
            let i = keep.(t) in
            Solution.make
              ~req:(Float.Array.get qreq i)
              ~load:(Float.Array.get qload i)
              ~area:(Float.Array.get qarea i)
              b.data.(i))
      in
      F (Contract.check_arr ~name out)
    end
end

let map_data f c =
  match c with Empty -> Empty | F arr -> F (Array.map (Solution.map f) arr)

let fold f acc c = Array.fold_left f acc (to_array c)

let iter f c = Array.iter f (to_array c)

let best_req = function Empty -> None | F arr -> Some arr.(0)

let best_under_area c ~area =
  match c with
  | Empty -> None
  | F arr ->
    (* Curve order is req-descending, so the first fitting point wins. *)
    let n = Array.length arr in
    let rec find i =
      if i >= n then None
      else if arr.(i).Solution.area <= area then Some arr.(i)
      else find (i + 1)
    in
    find 0

let best_min_area c ~req =
  match c with
  | Empty -> None
  | F arr ->
    (* The curve is req-descending: stop at the first element below the
       floor instead of scanning the whole frontier. *)
    let n = Array.length arr in
    let rec scan i best =
      if i >= n then best
      else
        let s = arr.(i) in
        if s.Solution.req < req then best
        else
          let best =
            match best with
            | Some b when b.Solution.area <= s.Solution.area -> best
            | Some _ | None -> Some s
          in
          scan (i + 1) best
    in
    scan 0 None

let cap ~scratch ~max_size c =
  if max_size < 2 then invalid_arg "Curve.cap: max_size < 2";
  match c with
  | Empty -> Empty
  | F arr ->
    let n = Array.length arr in
    if n <= max_size then c
    else begin
      (* Always keep the extreme point of each dimension (best required
         time, least load, least area), then spread the rest evenly along
         the required-time axis.  Everything goes straight into the
         caller's scratch builder, in the same order the old list-based
         construction pushed, so the first-wins tie behaviour of
         [Builder.build] is unchanged. *)
      let bld = scratch in
      Builder.clear bld;
      let extreme proj =
        let best = ref 0 in
        Array.iteri
          (fun i s -> if proj s < proj arr.(!best) then best := i)
          arr;
        arr.(!best)
      in
      let n_extremes = 4 in
      Builder.add bld arr.(0);
      Builder.add bld (extreme (fun s -> s.Solution.load));
      Builder.add bld (extreme (fun s -> s.Solution.area));
      Builder.add bld arr.(n - 1);
      let spread = max 0 (max_size - n_extremes) in
      for k = 0 to spread - 1 do
        Builder.add bld arr.(1 + (k * (n - 2) / max 1 spread))
      done;
      let capped = Builder.build ~name:"Curve.cap" bld in
      (* For very small caps the four kept extremes may overflow the cap;
         truncate in curve order as a last resort. *)
      if size capped <= max_size then capped
      else
        match capped with
        | Empty -> Empty
        | F a -> F (Array.sub a 0 max_size)
    end
