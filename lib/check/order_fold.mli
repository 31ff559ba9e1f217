(** C9: a [Hashtbl.iter]/[fold]/[to_seq*] traversal whose product
    escapes with no intervening sort — neither nested inside a sorting
    application nor let-bound to an ident later sorted.  Waive a
    provably order-insensitive fold with [check: nondet-ok]. *)

val rule : string

val check :
  waivers:Waivers.t -> Cmt_load.t list -> Finding.t list
