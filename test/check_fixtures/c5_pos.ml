(* C5 positive: a known-blocking call inside a held-lock region, a
   Condition.wait whose mutex is not the only lock held, and a helper
   that joins, called under a lock: the finding is at the call.  The local
   Thread stub stands in for the real threads library (the analyzer
   matches by path suffix). *)

module Thread = struct
  type t = unit

  let join (_ : t) = ()
end

type s = { m : Mutex.t; m2 : Mutex.t; cv : Condition.t }

let make () =
  { m = Mutex.create (); m2 = Mutex.create (); cv = Condition.create () }

let bad_join t th = Mutex.protect t.m (fun () -> Thread.join th)

let bad_wait t =
  Mutex.protect t.m (fun () ->
      Mutex.protect t.m2 (fun () -> Condition.wait t.cv t.m2))

let join_worker th = Thread.join th

let bad_helper t th = Mutex.protect t.m (fun () -> join_worker th)
