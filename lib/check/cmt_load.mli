(** Loading [.cmt]/[.cmti] artifacts into per-compilation-unit records,
    merged by unit name.

    Stale artifacts from a different compiler are skipped by magic
    number; artifacts that still fail to load yield warning-severity
    [cmt-error] findings instead of aborting. *)

type t = {
  name : string;  (** compilation-unit name, e.g. [Merlin_exec__Pool] *)
  source : string option;  (** implementation source path from the cmt *)
  intf_source : string option;  (** interface source path from the cmti *)
  impl : Typedtree.structure option;
  intf : Typedtree.signature option;
  load_path : string list;
      (** the compiler's load path when the unit was built (the
          implementation's when both artifacts exist), for rebuilding
          typing environments *)
}

(** Source under [bin/], [bench/], [test/] or [examples/]: a root of
    the reference graph, never a dead-export target. *)
val is_entry : t -> bool

(** Source under [lib/exec]: the pool implementation, exempt from the
    domain-safety rule (it owns the lock discipline the rule enforces
    on everyone else). *)
val is_pool_internal : t -> bool

(** A dune-generated library alias module ([*.ml-gen]). *)
val is_alias_unit : t -> bool

(** Load every [.cmt]/[.cmti] artifact under the given
    files/directories, in path order; fixture trees ([*_fixtures]) are
    skipped. *)
val load_roots : string list -> t list * Finding.t list
