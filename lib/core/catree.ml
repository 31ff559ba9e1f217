type t = { members : member list }

and member = Direct of int | Chain of t

let leaf id = { members = [ Direct id ] }

let count_chains members =
  List.length
    (List.filter (function Chain _ -> true | Direct _ -> false) members)

let level members =
  (match members with
   | [] -> invalid_arg "Catree.level: empty"
   | _ :: _ -> ());
  if count_chains members > 1 then
    invalid_arg "Catree.level: more than one internal child";
  { members }

let rec sinks_in_order t =
  List.concat_map
    (function Direct id -> [ id ] | Chain sub -> sinks_in_order sub)
    t.members

let rec depth t =
  let sub_depth =
    List.fold_left
      (fun acc -> function Direct _ -> acc | Chain sub -> max acc (depth sub))
      0 t.members
  in
  1 + sub_depth

let rec max_branching t =
  List.fold_left
    (fun acc -> function Direct _ -> acc | Chain sub -> max acc (max_branching sub))
    (List.length t.members)
    t.members

let rec well_formed ~alpha t =
  (match t.members with [] -> false | _ :: _ -> true)
  && count_chains t.members <= 1
  && List.length t.members <= alpha
  && List.for_all
       (function Direct _ -> true | Chain sub -> well_formed ~alpha sub)
       t.members

let rec pp ppf t =
  let pp_member ppf = function
    | Direct id -> Format.fprintf ppf "s%d" id
    | Chain sub -> pp ppf sub
  in
  Format.fprintf ppf "[%a]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf " ")
       pp_member)
    t.members
