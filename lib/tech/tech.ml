type t = {
  name : string;
  unit_wire_res : float;
  unit_wire_cap : float;
  unit_wire_area : float;
}

let default =
  { name = "synthetic-0.35um";
    unit_wire_res = 0.4;
    unit_wire_cap = 0.08;
    unit_wire_area = 0.003 }

let ps_per_ohm_ff = 1e-3

let wire_res t len = t.unit_wire_res *. float_of_int len

let wire_cap t len = t.unit_wire_cap *. float_of_int len

let wire_elmore t ~len ~load =
  let r = wire_res t len in
  let c = wire_cap t len in
  ps_per_ohm_ff *. r *. ((c /. 2.0) +. load)
