(* C5 waived: a deliberate join under the state lock (a shutdown path
   that wants no new work admitted while it drains), waived in place,
   directly and through a helper that joins. *)

module Thread = struct
  type t = unit

  let join (_ : t) = ()
end

type s = { m : Mutex.t }

let make () = { m = Mutex.create () }

let shutdown_join t th =
  Mutex.protect t.m (fun () -> Thread.join th (* check: blocking-ok *))

let join_worker th = Thread.join th

let shutdown_helper t th =
  Mutex.protect t.m (fun () -> join_worker th (* check: blocking-ok *))
