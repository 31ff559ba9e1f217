(** Seeded synthetic benchmark circuits.

    The paper evaluates on mapped MCNC/ISCAS-85 benchmarks inside SIS; the
    netlists themselves are not part of the paper, so we substitute
    structurally similar synthetic circuits (DESIGN.md section 3): random
    layered DAGs whose gate counts follow the published area of each
    benchmark (Table 2, column "Area" for Flow I), scaled down by
    [scale_down] to keep full-flow experiments tractable on one core.
    Generation is deterministic per circuit name. *)

(** The 15 Table-2 circuits: (name, paper Flow-I area in 1000 lambda^2,
    paper Flow-I delay in ns, paper Flow-I runtime in s). *)
val table2_specs : (string * float * float * float) list

(** [generate ?scale_down ~name ()] builds the synthetic stand-in for the
    named benchmark ([scale_down] default 40: a 3574 k-lambda^2 circuit
    becomes ~45 gates).  Unknown names get a medium default size.
    Positions are zeroed; call {!Placement.place}. *)
val generate : ?scale_down:int -> name:string -> unit -> Netlist.t

(** [random ~seed ~n_gates ~n_inputs] is the raw generator underneath. *)
val random : seed:int -> n_gates:int -> n_inputs:int -> name:string -> Netlist.t
