open Merlin_geometry

type t = { id : int; pt : Point.t; cap : float; req : float }

let make ~id ~pt ~cap ~req = { id; pt; cap; req }

let equal a b =
  a.id = b.id && Point.equal a.pt b.pt && a.cap = b.cap && a.req = b.req

let pp ppf s =
  Format.fprintf ppf "s%d@%a cap=%.2f req=%.1f" s.id Point.pp s.pt s.cap s.req
