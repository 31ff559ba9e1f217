(* Stand-in for Merlin_curves.Curve: the Builder surface the
   builder-create-in-loop fixtures touch, plus a tree node for the
   recursive walks.  The rule matches [Curve.Builder.create] by path
   suffix, so the stub triggers it exactly as the real module does. *)

module Builder = struct
  type 'a b = 'a list ref

  let create () = ref []

  let clear b = b := []

  let build b = List.rev !b
end

type node = { kids : node list }

let fill b x =
  b := x :: !b;
  b
