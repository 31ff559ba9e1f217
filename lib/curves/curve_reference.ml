(* The pre-batch, list-based frontier implementation, kept verbatim as
   the executable specification of the curve operations.  The qcheck
   suite in test/test_curve_kernel.ml asserts that the array-backed
   batch kernel in Curve is observationally equivalent to this module
   on random solution bags.  Not used by any DP core. *)

type 'a t = 'a Solution.t list
(* Invariant: sorted by Solution.compare_key; pairwise non-dominated. *)

let dominates s1 s2 =
  s1.Solution.load <= s2.Solution.load
  && s2.Solution.req <= s1.Solution.req
  && s1.Solution.area <= s2.Solution.area

let empty = []

let size = List.length

let to_list c = c

(* Single pass exploiting the sort order: an element before the insertion
   point (higher req, or equal req with no worse load/area) can dominate
   [s] but never be dominated by it; after the insertion point it is the
   reverse. *)
let add c s =
  let rec drop = function
    | [] -> []
    | x :: rest ->
      if dominates s x then drop rest else x :: drop rest
  in
  let rec scan acc = function
    | [] -> List.rev (s :: acc)
    | x :: rest as l ->
      let cmp = Solution.compare_key x s in
      if cmp = 0 then c
      else if cmp < 0 then
        if dominates x s then c else scan (x :: acc) rest
      else List.rev_append acc (s :: drop l)
  in
  scan [] c

let of_list sols = List.fold_left add empty sols

let union a b = List.fold_left add a b

let map_solutions f c = of_list (List.map f c)

let best_min_area c ~req =
  let fits s = s.Solution.req >= req in
  List.fold_left
    (fun acc s ->
       if not (fits s) then acc
       else
         match acc with
         | Some best when best.Solution.area <= s.Solution.area -> acc
         | _ -> Some s)
    None c

let cap ~max_size c =
  if max_size < 2 then invalid_arg "Curve_reference.cap: max_size < 2";
  let n = List.length c in
  if n <= max_size then c
  else begin
    let arr = Array.of_list c in
    (* Always keep the extreme point of each dimension (best required
       time, least load, least area), then spread the rest evenly along
       the required-time axis. *)
    let extreme proj =
      let best = ref 0 in
      Array.iteri (fun i s -> if proj s < proj arr.(!best) then best := i) arr;
      arr.(!best)
    in
    let keep =
      [ arr.(0); extreme (fun s -> s.Solution.load);
        extreme (fun s -> s.Solution.area); arr.(n - 1) ]
    in
    let spread = max 0 (max_size - List.length keep) in
    let picked =
      List.init spread (fun k -> arr.(1 + (k * (n - 2) / max 1 spread)))
    in
    let capped =
      List.sort_uniq Solution.compare_key (keep @ picked) |> of_list
    in
    (* For very small caps the four kept extremes may overflow the cap;
       truncate in curve order as a last resort. *)
    if List.length capped <= max_size then capped
    else List.filteri (fun i _ -> i < max_size) capped
  end
