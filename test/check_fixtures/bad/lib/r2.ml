(* C11 raising-accessor fixture: raising accessor in lib/. *)
let lookup tbl k = Hashtbl.find tbl k
