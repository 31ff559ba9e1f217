(** The eager moves of the curve DPs, retained as the executable
    specification for {!Merlin_core.Build}'s provenance payloads: every
    move builds its routing tree and C-alpha member list at once, where
    the DPs record a provenance block and build trees only at
    extraction.  [test/test_core.ml] property-tests that
    {!Merlin_core.Build.materialise} of a random move sequence equals
    the same sequence here, and that each [Build.*_cost_into] twin is
    bitwise the coordinates of the move here; [test/test_ginneken.ml]
    walks van Ginneken's batches with these moves.  Test support: not
    used by the DP cores. *)

open Merlin_geometry
open Merlin_tech
open Merlin_net
open Merlin_curves
open Merlin_core

type sol = Build.t Solution.t

(** [of_sink s]: the sink itself, rooted at the sink's own location. *)
val of_sink : Sink.t -> sol

(** The data-only forms: the tree and member list a move produces from
    its operands'.  [extend_wire_data] wraps a bare leaf in a node even
    over a zero-length wire, and returns a node already rooted at [to_]
    as it is.  A buffer or a join splices the children of an unbuffered
    operand node at its own point.  [join_data] concatenates the member
    lists in (a, b) order and raises [Invalid_argument] if either root
    is elsewhere.  [chain] makes the members one chain member
    ({!Merlin_core.Catree.level}, which raises on two chains). *)

val extend_wire_data : to_:Point.t -> Build.t -> Build.t

val add_root_buffer_data : Buffer_lib.buffer -> Build.t -> Build.t

val join_data : Point.t -> Build.t -> Build.t -> Build.t

val chain : Build.t -> Build.t

(** The full moves: the data-only forms with the (required time, load,
    area) each move produces under the Elmore / 4-parameter models.  A
    wire lowers req by its Elmore delay and adds its capacitance (a
    zero-length one re-uses the root); a buffer lowers req by its gate
    delay at the current load, and its input capacitance becomes the
    load; a join takes the lower req and adds loads and areas. *)

val extend_wire : Tech.t -> to_:Point.t -> sol -> sol

val add_root_buffer : Buffer_lib.buffer -> sol -> sol

val join : Point.t -> sol -> sol -> sol
