val iter_build : 'a list -> unit

val loop_build : 'a array -> unit

val walk_build : Curve.node -> unit

val hoisted : unit -> 'b Curve.Builder.b
