(* C15 mli-sibling fixture: a lib module with no sibling .mli. *)
let orphan = 42
