type chain_placement = All_positions | Flush_ends

type t = {
  alpha : int;
  max_curve : int;
  quant_req : float;
  quant_load : float;
  quant_area : float;
  candidate_limit : int;
  buffer_trials : int;
  bbox_slack : float;
  full_hanan : bool;
  chain_placement : chain_placement;
  bubbling : bool;
  max_iters : int;
}

let default =
  { alpha = 8;
    max_curve = 8;
    quant_req = 10.0;
    quant_load = 10.0;
    quant_area = 8.0;
    candidate_limit = 16;
    buffer_trials = 8;
    bbox_slack = 0.25;
    full_hanan = false;
    chain_placement = Flush_ends;
    bubbling = true;
    max_iters = 10 }

let paper_table1 =
  { default with
    alpha = 15;
    full_hanan = true;
    candidate_limit = 40;
    max_curve = 10;
    quant_req = 5.0;
    quant_load = 6.0;
    quant_area = 4.0;
    chain_placement = All_positions }

let paper_table2 =
  { default with alpha = 10; full_hanan = false; max_iters = 3 }

let scaled n =
  if n <= 10 then { default with max_curve = 10 }
  else if n <= 20 then { default with max_iters = 6 }
  else if n <= 40 then
    { default with
      candidate_limit = 14;
      max_curve = 6;
      quant_req = 20.0;
      quant_load = 15.0;
      quant_area = 10.0;
      buffer_trials = 6;
      chain_placement = Flush_ends;
      max_iters = 3 }
  else
    { default with
      alpha = 6;
      candidate_limit = 10;
      max_curve = 5;
      quant_req = 30.0;
      quant_load = 20.0;
      quant_area = 15.0;
      buffer_trials = 5;
      chain_placement = Flush_ends;
      max_iters = 2 }

let validate t =
  if t.alpha < 2 then invalid_arg "Config.validate: alpha < 2";
  if t.max_curve < 2 then invalid_arg "Config.validate: max_curve < 2";
  if t.candidate_limit < 1 then invalid_arg "Config.validate: candidate_limit < 1";
  if t.buffer_trials < 1 then invalid_arg "Config.validate: buffer_trials < 1";
  if t.bbox_slack < 0.0 then invalid_arg "Config.validate: bbox_slack < 0";
  if t.max_iters < 1 then invalid_arg "Config.validate: max_iters < 1";
  if t.quant_req < 0.0 || t.quant_load < 0.0 || t.quant_area < 0.0 then
    invalid_arg "Config.validate: negative quantisation grid";
