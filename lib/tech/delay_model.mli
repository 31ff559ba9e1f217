(** Four-parameter gate/buffer delay model.

    The paper computes gate delays with the 4-parameter equation of [LSP98]
    and wire delays with the Elmore model.  [LSP98] fits a delay linear in
    the output load with input-slew derating; we reproduce the same
    functional family:

      delay(ps)    = d0 + r * c_load + k_s * slew_in
      slew_out(ps) = s0 + s_f * (r * c_load)

    where [d0] is intrinsic delay (ps), [r] the effective drive resistance
    (ohm, applied to fF loads with the ps conversion folded in), [k_s] the
    slew-derating coefficient and [s0]/[s_f] the output-slew fit.  The
    dynamic programs use a nominal input slew (the curves would otherwise
    need a fourth dimension; the paper's own DP ignores slew for the same
    reason), so by default [slew_in] is the nominal slew of the model. *)

type t = {
  d0 : float;      (** intrinsic delay, ps *)
  r_drive : float; (** effective drive resistance, ohm *)
  k_slew : float;  (** delay derating per ps of input slew *)
  s0 : float;      (** intrinsic output slew, ps *)
}

val make : d0:float -> r_drive:float -> k_slew:float -> s0:float -> t

(** The input slew, ps, the dynamic programs assume. *)
val nominal_slew : float

(** [delay t ~load] is the gate delay in ps at nominal input slew for a
    [load] in fF. *)
val delay : t -> load:float -> float

(** [delay_slew t ~load ~slew_in] is the full 4-parameter evaluation,
    returning [(delay, slew_out)]. *)
val delay_slew : t -> load:float -> slew_in:float -> float * float
