(* Pure helpers of the benchmark: order statistics, the open-loop
   arrival schedule, and the result line the benchmark prints last. *)

module Json = Merlin_report.Json

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  match sorted xs with
  | [||] -> invalid_arg "Stats.median: no samples"
  | a ->
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Geometric mean of positive samples: the typical size of samples
   that differ by orders of magnitude, each weighing the same. *)
let gmean xs =
  match xs with
  | [] -> invalid_arg "Stats.gmean: no samples"
  | _ ->
    if List.exists (fun x -> not (x > 0.0)) xs then
      invalid_arg "Stats.gmean: a sample is not positive";
    exp (List.fold_left (fun a x -> a +. log x) 0.0 xs /. float_of_int (List.length xs))

(* Nearest-rank percentile: the smallest sample with at least [p] of the
   samples at or below it. *)
let rank ~p n = max 1 (int_of_float (Float.ceil ((p *. float_of_int n) -. 1e-9)))

let percentile ~p xs =
  match sorted xs with
  | [||] -> invalid_arg "Stats.percentile: no samples"
  | a -> a.(rank ~p (Array.length a) - 1)

(* Samples strictly above the nearest-rank [p] percentile. *)
let beyond ~p n = n - rank ~p n

type tail = {
  samples : int;
  p50 : float;
  p99 : float option;  (** [None] below 10 samples beyond the p99 *)
}

let min_beyond = 10

let tail xs =
  let n = List.length xs in
  { samples = n;
    p50 = percentile ~p:0.5 xs;
    p99 =
      (if beyond ~p:0.99 n >= min_beyond then Some (percentile ~p:0.99 xs)
       else None) }

(* Open loop: request [i] is due at [start + i / rate], whatever
   happened to the requests before it. *)
let due ~start ~rate i = start +. (float_of_int i /. rate)

(* How late the generator sent each request, never negative. *)
let lateness ~due ~sent = Float.max 0.0 (sent -. due)

(* ------------------------------------------------------------------ *)
(* Result line                                                         *)
(* ------------------------------------------------------------------ *)

type metric = { name : string; value : float; unit_ : string }

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
}

let result_to_json r =
  Json.Obj
    [ ("correct", Json.Bool r.correct);
      ("attempted", Json.Num (float_of_int r.attempted));
      ("failed", Json.Num (float_of_int r.failed));
      ("metrics",
       Json.Obj
         (List.map
            (fun m ->
               ( m.name,
                 Json.Obj
                   [ ("value", Json.Num m.value); ("unit", Json.Str m.unit_) ]
               ))
            r.metrics)) ]

let result_line r = Json.to_string (result_to_json r)

let keys = [ "correct"; "attempted"; "failed"; "metrics" ]

let result_of_line line =
  let ( let* ) = Result.bind in
  let field k doc =
    Option.to_result ~none:("missing " ^ k) (Json.member k doc)
  in
  let count k doc =
    let* v = field k doc in
    match Json.to_num v with
    | Some f when Float.is_integer f && f >= 0.0 -> Ok (int_of_float f)
    | _ -> Error (k ^ " is not a count")
  in
  match Json.of_string line with
  | exception Json.Parse_error msg -> Error msg
  | Json.Obj fields as doc when List.sort compare (List.map fst fields) = List.sort compare keys ->
    let* correct =
      let* v = field "correct" doc in
      Option.to_result ~none:"correct is not a boolean" (Json.to_bool v)
    in
    let* attempted = count "attempted" doc in
    let* failed = count "failed" doc in
    let* metrics =
      match Json.member "metrics" doc with
      | Some (Json.Obj ms) ->
        List.fold_right
          (fun (name, m) acc ->
             let* acc = acc in
             match
               ( Option.bind (Json.member "value" m) Json.to_num,
                 Option.bind (Json.member "unit" m) Json.to_str )
             with
             | Some value, Some unit_ when Float.is_finite value ->
               Ok ({ name; value; unit_ } :: acc)
             | _ -> Error ("malformed metric " ^ name))
          ms (Ok [])
      | _ -> Error "metrics is not an object"
    in
    if attempted < 1 then Error "attempted is below 1"
    else Ok { correct; attempted; failed; metrics }
  | _ -> Error "not an object with exactly the result keys"
