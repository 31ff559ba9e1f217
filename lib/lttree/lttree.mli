(** LT-Tree type-I fanout optimization [To90] — the logic-domain phase of
    the paper's Setup/Flow I.

    An LT-Tree of type I permits at most one internal node among the
    immediate children of every internal node and no left sibling for
    internal nodes: the buffers form a chain, each link driving a group of
    sinks directly plus the next link.  With sinks ordered by required
    time (most critical first, attached nearest the root) the optimal
    chain is found by dynamic programming over order suffixes,
    propagating (required time, load, buffer area) curves.  Interconnect
    delay is not part of this phase (sink positions are unknown in the
    logic domain, paper Section II); the embedding into the plane is done
    by the flow driver. *)

open Merlin_tech
open Merlin_net
open Merlin_curves

(** A chain link: a buffer driving [directs] plus optionally the next
    link. *)
type chain = {
  buffer : Buffer_lib.buffer;
  directs : Sink.t list;
  chain : chain option;
}

(** The root level, driven by the net driver itself. *)
type plan = { root_directs : Sink.t list; root_chain : chain option }

val plan_sinks : plan -> Sink.t list

val plan_area : plan -> float

val n_levels : plan -> int

(** [best ~buffers ~max_fanout ~driver sinks] is the LT-Tree-I plan
    maximising the required time at the driver input (gate delay of
    [driver] applied), each level limited to [max_fanout] children; ties
    go to smaller load, then smaller buffer area.  The solution carries
    that required time, the load the plan presents to the driver and its
    total buffer area.  Sinks are sorted internally by required time.
    Raises [Invalid_argument] on an empty sink list or [max_fanout < 2]. *)
val best :
  buffers:Buffer_lib.t ->
  max_fanout:int ->
  driver:Delay_model.t ->
  Sink.t list ->
  plan Solution.t
