(* C5 negative: the classic condition-variable wait (only the waited
   mutex is held — the wait releases exactly it), in place or through a
   helper, and a blocking join, in place or through a helper, performed
   after the critical section ends. *)

module Thread = struct
  type t = unit

  let join (_ : t) = ()
end

type s = { m : Mutex.t; cv : Condition.t; mutable ready : bool }

let make () =
  { m = Mutex.create (); cv = Condition.create (); ready = false }

let wait_ready t =
  Mutex.protect t.m (fun () ->
      while not t.ready do
        Condition.wait t.cv t.m
      done)

let join_outside t th =
  Mutex.protect t.m (fun () -> t.ready <- false);
  Thread.join th

let join_worker th = Thread.join th

let helper_outside t th =
  Mutex.protect t.m (fun () -> t.ready <- false);
  join_worker th

let wait_loop t =
  while not t.ready do
    Condition.wait t.cv t.m
  done

let wait_ready_via_helper t = Mutex.protect t.m (fun () -> wait_loop t)
