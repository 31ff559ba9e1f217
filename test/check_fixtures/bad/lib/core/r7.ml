(* C16 builder-create-in-loop fixture: per-batch Curve.Builder.create
   in DP hot-path loops; the arena discipline hoists one builder. *)
let fill = Curve.fill
let iter_build cells =
  List.iter
    (fun cell ->
       let bld = Curve.Builder.create () in
       ignore (Curve.Builder.build (fill bld cell)))
    cells

let loop_build cells =
  for i = 0 to Array.length cells - 1 do
    let bld = Curve.Builder.create () in
    ignore (Curve.Builder.build (fill bld cells.(i)))
  done

(* A recursive walk that creates a builder per call makes one per tree
   node. *)
let rec walk_build t =
  let bld = Curve.Builder.create () in
  ignore (Curve.Builder.build (fill bld t));
  List.iter walk_build t.Curve.kids

(* A builder created once, outside any loop, is the sanctioned use. *)
let hoisted () = Curve.Builder.create ()
