(* Stand-in for the merlin_curves library's alias module, so fixtures
   can spell the qualified [Merlin_curves.Curve.Builder.create]. *)

module Curve = Curve
