(* C13 error-prefix fixture: no "Module.function:" prefix. *)
let boom () = failwith "boom"
