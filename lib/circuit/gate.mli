(** Combinational gate kinds of the synthetic standard-cell library used
    by the full-flow (Table 2) experiments. *)

open Merlin_tech

type kind = {
  name : string;
  n_inputs : int;
  area : float;       (** 1000 lambda^2 *)
  input_cap : float;  (** fF per input pin *)
  model : Delay_model.t;
}

(** [pick ~rng ~n_inputs] draws a kind with the given arity (uniformly
    among matching kinds). *)
val pick : rng:Random.State.t -> n_inputs:int -> kind

(** A strong driver standing in for a primary-input pad. *)
val input_pad : kind
