(** Static timing analysis over a placed netlist with per-net routing.

    Arrival times propagate forward in topological order; every net's
    driver-to-pin delays come from its routing tree through the shared
    Elmore/4-parameter evaluator, so gate sizing, buffers and wire lengths
    all speak the same language as the optimization flows.  Required times
    propagate backward from the primary outputs against a clock target. *)

open Merlin_tech
open Merlin_net
open Merlin_rtree

type t = {
  netlist : Netlist.t;
  routing : Rtree.t option array;
      (** per signal node; [None] means the default star routing *)
  gen : int;
      (** generation id stamped by {!init}; keys the fanout memo so no
          physical equality on the netlist is needed *)
}

(** [init netlist] — all nets on default star routing. *)
val init : Netlist.t -> t

(** [with_routing t ~node tree] replaces one net's routing. *)
val with_routing : t -> node:int -> Rtree.t -> t

(** [sink_gates t node] — gates reading [node], fixed order (net sink [i]
    corresponds to the [i]-th element). *)
val sink_gates : t -> int -> int list

type report = {
  ready : float array;
      (** per node: when its output signal is ready to drive its net *)
  required : float array;
      (** per node: required ready time to meet the clock *)
  critical : float;  (** critical path delay, ps *)
  clock : float;     (** the target used for required times *)
}

(** [analyse ?clock ~tech t] runs full STA.  Default clock: the critical
    delay itself (zero worst slack). *)
val analyse : ?clock:float -> tech:Tech.t -> t -> report

(** [net_for_optimization ~tech t report node] is the optimization view of
    a net: source at the node position, driver model, fanout pins as sinks
    with capacitive loads and the report's required times.  [None] if the
    node has no fanouts. *)
val net_for_optimization : t -> report -> int -> Net.t option

(** Total buffer area added by the current routing (1000 lambda^2). *)
val total_buffer_area : t -> float

(** Total wirelength of the current routing (grid units). *)
val total_wirelength : t -> int
