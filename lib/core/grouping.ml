type t = Chi0 | Chi1 | Chi2 | Chi3

let all = [ Chi0; Chi1; Chi2; Chi3 ]

let stretch = function Chi0 -> 0 | Chi1 | Chi2 -> 1 | Chi3 -> 2

let code = function Chi0 -> 0 | Chi1 -> 1 | Chi2 -> 2 | Chi3 -> 3

let valid ~len = function
  | Chi0 | Chi1 | Chi2 -> len >= 1
  | Chi3 -> len >= 2

let window_start ~r ~len e = r - len - stretch e + 1

let skipped_left ~r ~len e =
  match e with
  | Chi0 | Chi1 -> None
  | Chi2 | Chi3 -> Some (window_start ~r ~len e + 1)

let skipped_right ~r ~len:_ e =
  match e with
  | Chi0 | Chi2 -> None
  | Chi1 | Chi3 -> Some (r - 1)

let covered ~r ~len e =
  if not (valid ~len e) then invalid_arg "Grouping.covered: invalid structure";
  let start = window_start ~r ~len e in
  let slots = List.init (len + stretch e) (fun i -> start + i) in
  let sl = skipped_left ~r ~len e and sr = skipped_right ~r ~len e in
  let differs opt pos =
    match opt with Some p -> not (Int.equal p pos) | None -> true
  in
  List.filter (fun pos -> differs sl pos && differs sr pos) slots

let pp ppf e = Format.fprintf ppf "chi%d" (code e)
