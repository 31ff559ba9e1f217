(* Known-good counterparts: the sanctioned form for every rule. *)

let is_empty = function [] -> true | _ :: _ -> false

let compare_ids a b = Int.compare a b

let lookup tbl k = Hashtbl.find_opt tbl k

let same_repr a b = a == b (* check: physical-eq *)

let boom () = failwith "Ok.boom: deliberate failure"

let safe f = try f () with Not_found -> 0
