(* C12 physical-eq fixture: unwaived physical equality. *)
let same a b = a == b
