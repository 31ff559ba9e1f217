type buffer = {
  name : string;
  area : float;
  input_cap : float;
  model : Delay_model.t;
}

type t = buffer array

let delay b ~load = Delay_model.delay b.model ~load

(* Geometric sizing: strength s in [1, s_max]; drive resistance falls as
   1/s, input cap and area grow sub-linearly with s (buffers are staged
   internally, so input cap does not grow proportionally to strength). *)
let synthetic ~n =
  if n < 1 then invalid_arg "Buffer_lib.synthetic: n < 1";
  let base_res = 8000.0 and base_cap = 4.0 and base_area = 1.6 in
  let s_max = 64.0 in
  let make_buffer i =
    let frac = if n = 1 then 0.0 else float_of_int i /. float_of_int (n - 1) in
    let strength = s_max ** frac in
    let model =
      Delay_model.make
        ~d0:(45.0 +. (18.0 *. log (1.0 +. strength)))
        ~r_drive:(base_res /. strength)
        ~k_slew:0.12
        ~s0:(25.0 +. (4.0 *. log (1.0 +. strength)))
    in
    { name = Printf.sprintf "BUF_X%02d" (i + 1);
      area = base_area *. (strength ** 0.75);
      input_cap = base_cap *. (strength ** 0.5);
      model }
  in
  Array.init n make_buffer

let default = synthetic ~n:34

let subset lib ~trials =
  let n = Array.length lib in
  if n <= trials then lib
  else Array.init trials (fun i -> lib.(i * (n - 1) / max 1 (trials - 1)))

let weakest lib =
  if Array.length lib = 0 then invalid_arg "Buffer_lib.weakest: empty library";
  Array.fold_left (fun acc b -> if b.input_cap < acc.input_cap then b else acc)
    lib.(0) lib

let strongest lib =
  if Array.length lib = 0 then
    invalid_arg "Buffer_lib.strongest: empty library";
  Array.fold_left
    (fun acc b ->
       if b.model.Delay_model.r_drive < acc.model.Delay_model.r_drive then b
       else acc)
    lib.(0) lib
