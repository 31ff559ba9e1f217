type t = int array

let identity n = Array.init n (fun i -> i)

let of_list = Array.of_list

let to_list = Array.to_list

let length = Array.length

let equal a b =
  Array.length a = Array.length b && Array.for_all2 Int.equal a b

let is_permutation t =
  let n = Array.length t in
  let seen = Array.make n false in
  Array.for_all
    (fun v ->
       if v < 0 || v >= n || seen.(v) then false
       else begin seen.(v) <- true; true end)
    t

let positions t =
  let n = Array.length t in
  let pos = Array.make n (-1) in
  Array.iteri (fun p sink -> pos.(sink) <- p) t;
  pos

let swap_at t i =
  let n = Array.length t in
  if i < 0 || i > n - 2 then invalid_arg "Order.swap_at: index out of range";
  let t' = Array.copy t in
  t'.(i) <- t.(i + 1);
  t'.(i + 1) <- t.(i);
  t'

let in_neighborhood a b =
  let n = Array.length a in
  if Array.length b <> n then invalid_arg "Order.in_neighborhood: lengths differ";
  let pa = positions a and pb = positions b in
  let ok = ref true in
  for sink = 0 to n - 1 do
    if abs (pa.(sink) - pb.(sink)) > 1 then ok := false
  done;
  !ok

(* Lemma 4: members of N(Pi) = subsets of non-overlapping adjacent swaps.
   At each position either keep the element or swap it with the next one
   and jump two positions ahead. *)
let neighborhood a =
  let n = Array.length a in
  let rec go pos prefix =
    if pos = n then [ List.rev prefix ]
    else if pos = n - 1 then [ List.rev (a.(pos) :: prefix) ]
    else
      let keep = go (pos + 1) (a.(pos) :: prefix) in
      let swapped = go (pos + 2) (a.(pos) :: a.(pos + 1) :: prefix) in
      keep @ swapped
  in
  List.map Array.of_list (go 0 [])

let neighborhood_size n =
  if n < 1 then invalid_arg "Order.neighborhood_size: n < 1";
  let rec fib a b k = if k = 0 then a else fib b (a + b) (k - 1) in
  (* fib 1 1 k = F(k+1) with F(1) = F(2) = 1; |N| = F(n+1). *)
  fib 1 1 n

let theorem1_closed_form n =
  let s5 = sqrt 5.0 in
  let phi = (1.0 +. s5) /. 2.0 and psi = (1.0 -. s5) /. 2.0 in
  let k = float_of_int (n + 2) in
  ((phi ** k) -. (psi ** k)) /. s5

let pp ppf t =
  Format.fprintf ppf "(%a)"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ",")
       (fun ppf i -> Format.fprintf ppf "s%d" i))
    (Array.to_list t)
