type t = { d0 : float; r_drive : float; k_slew : float; s0 : float }

let make ~d0 ~r_drive ~k_slew ~s0 = { d0; r_drive; k_slew; s0 }

let nominal_slew = 40.0

let slew_fraction = 0.35

let delay_slew t ~load ~slew_in =
  let rc = Tech.ps_per_ohm_ff *. t.r_drive *. load in
  let d = t.d0 +. rc +. (t.k_slew *. slew_in) in
  let slew_out = t.s0 +. (slew_fraction *. rc) in
  (d, slew_out)

(* [delay_slew]'s delay at nominal slew, with the same float operations
   in the same order (so bit-identical), computed directly so that the
   DP hot paths box only the result instead of a pair and its two
   floats. *)
let delay t ~load =
  let rc = Tech.ps_per_ohm_ff *. t.r_drive *. load in
  t.d0 +. rc +. (t.k_slew *. nominal_slew)
