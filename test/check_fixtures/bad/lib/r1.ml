(* C10 poly-compare fixture: polymorphic equality on structured data. *)
let is_empty l = l = []
