val iter_build : 'a list -> unit

val loop_build : 'a array -> unit

val walk_build : 'a -> unit

val hoisted : unit -> 'b Curve.Builder.b
