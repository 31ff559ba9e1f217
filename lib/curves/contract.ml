let enabled_ref =
  ref
    (match Sys.getenv_opt "MERLIN_CHECK" with
     | Some "1" -> true
     | Some _ | None -> false)

let set_enabled b = enabled_ref := b

let fail ~name msg =
  invalid_arg (Printf.sprintf "Contract.check: %s: %s" name msg)

(* Strict Solution.compare_key order over the columns: req descending,
   then load, then area ascending. *)
let verify_sorted ~name req load area =
  for i = 0 to Float.Array.length req - 2 do
    let c = Float.compare (Float.Array.get req (i + 1)) (Float.Array.get req i) in
    let c =
      if c <> 0 then c
      else
        let c =
          Float.compare (Float.Array.get load i) (Float.Array.get load (i + 1))
        in
        if c <> 0 then c
        else Float.compare (Float.Array.get area i) (Float.Array.get area (i + 1))
    in
    if c >= 0 then fail ~name "solutions out of compare_key order"
  done

(* Requires the columns strictly sorted by compare_key ([check] runs
   [verify_sorted] first).  Under that order a point can only be
   strictly dominated by an earlier one, so a single (load, area)
   minima-staircase sweep — the same structure [Curve.Builder.build]
   prunes with — answers every dominance query in O(n log n).  It is a
   deliberate second copy of the builder's staircase: the cross-check
   of a sweep must not share the sweep's code (DESIGN.md §9). *)
let verify_frontier ~name load area =
  let n = Float.Array.length load in
  let st_load = Float.Array.create n in
  let st_area = Float.Array.create n in
  let st_len = ref 0 in
  for i = 0 to n - 1 do
    let l = Float.Array.get load i and a = Float.Array.get area i in
    let p =
      let lo = ref 0 and hi = ref !st_len in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if Float.Array.get st_load mid <= l then lo := mid + 1 else hi := mid
      done;
      !lo - 1
    in
    if p >= 0 && Float.Array.get st_area p <= a then
      fail ~name "curve holds an inferior solution";
    let q = if p >= 0 && Float.Array.get st_load p = l then p else p + 1 in
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
  done

let check ~name req load area =
  if !enabled_ref then begin
    verify_sorted ~name req load area;
    verify_frontier ~name load area
  end
