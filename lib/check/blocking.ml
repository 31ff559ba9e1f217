(* C5 — blocking-under-lock.

   A call that can block indefinitely (socket ops, joins, pool waits —
   the table lives in Concur.blocking_table) inside a held-lock region
   stalls every other thread contending for that lock for as long as
   the call blocks; under the server's one lock per subsystem that is
   usually the whole daemon.

   [Condition.wait cv m] is the one legitimate way to block while
   holding [m] — the wait releases it.  It releases *only* [m],
   though, so waiting while a second lock is held (or on a mutex other
   than the one the enclosing region holds) keeps that other lock
   pinned for the duration: exactly the finding.  A wait whose mutex
   cannot be named is skipped rather than guessed at.

   A call to a project function that may block (Concur's blocking
   summary: it calls a blocking primitive, or a callee chain does) is a
   blocking site too, judged like the primitive it reaches and reported
   at the call, naming both.

   Deliberate blocking under a lock (rare, but e.g. a shutdown path
   that joins under a state lock on purpose) is waived in place with
   [check: blocking-ok]. *)

let rule = "blocking-under-lock"

let finding ~waivers (loc : Location.t) message =
  let file = loc.Location.loc_start.Lexing.pos_fname in
  let line = loc.Location.loc_start.Lexing.pos_lnum in
  let col =
    loc.Location.loc_start.Lexing.pos_cnum
    - loc.Location.loc_start.Lexing.pos_bol
  in
  if Waivers.waived waivers ~file ~line ~token:"blocking-ok" then None
  else
    Some
      (Finding.make ~file ~line ~col ~rule ~severity:Finding.Warning message)

let check ~waivers project =
  List.filter_map
    (fun (s : Concur.blocking_site) ->
       let prim = s.Concur.b_prim in
       let what =
         match s.Concur.b_via with
         | None -> prim
         | Some callee -> Printf.sprintf "call to %s (it reaches %s)" callee prim
       in
       if not (String.equal prim "Condition.wait") then
         finding ~waivers s.Concur.b_loc
           (Printf.sprintf
              "%s can block indefinitely while holding %s; every contender \
               on the lock stalls with it — move the call outside the \
               critical section (waive: blocking-ok)"
              what
              (String.concat ", " s.Concur.b_held))
       else
         match s.Concur.b_wait_on with
         | None -> None (* unnameable mutex: cannot tell good from bad *)
         | Some m -> (
           match
             List.filter (fun held -> not (String.equal held m)) s.Concur.b_held
           with
           | [] -> None (* the classic wait: only the waited mutex held *)
           | others ->
             finding ~waivers s.Concur.b_loc
               (Printf.sprintf
                  "%s releases only %s; %s stay(s) held for as long as the \
                   wait blocks — drop the outer lock first (waive: \
                   blocking-ok)"
                  what m
                  (String.concat ", " others))))
    (Concur.blocking_sites project)
