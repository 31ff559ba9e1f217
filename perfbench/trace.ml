(* In-memory spans recorded by the benchmark around its calls into the
   program's layers.  A span has a name, a monotonic start and end, the
   span that was open when it started, and the request it belongs to;
   spans stay in memory and are written out once the run is over. *)

module Clock = Merlin_exec.Clock

type span = {
  id : int;
  name : string;
  parent : int;  (** [-1] for a root span *)
  req : int;
  start : float;
  stop : float;
  counts : (string * float) list;
}

type t = {
  mutable spans : span list;  (** newest first *)
  mutable next : int;
  mutable open_ : (int * int) list;  (** (span id, request) stack *)
  mutable pending : (string * float) list;  (** counts for the open span *)
}

let create () = { spans = []; next = 0; open_ = []; pending = [] }

let current_req t = match t.open_ with (_, r) :: _ -> r | [] -> -1

(* [span t ?req name f] runs [f] inside a new span.  [req] defaults to
   the enclosing span's request. *)
let span t ?req name f =
  let id = t.next in
  t.next <- id + 1;
  let req = match req with Some r -> r | None -> current_req t in
  let parent = match t.open_ with (p, _) :: _ -> p | [] -> -1 in
  let saved = t.pending in
  t.open_ <- (id, req) :: t.open_;
  t.pending <- [];
  let start = Clock.monotonic_s () in
  let finish () =
    let stop = Clock.monotonic_s () in
    t.spans <- { id; name; parent; req; start; stop; counts = t.pending } :: t.spans;
    t.open_ <- List.tl t.open_;
    t.pending <- saved
  in
  Fun.protect ~finally:finish f

(* Attach a count to the innermost open span. *)
let count t name v = t.pending <- (name, v) :: t.pending

(* Record an already-measured interval as a span. *)
let record t ?(parent = -1) ~req ~start ~stop ?(counts = []) name =
  let id = t.next in
  t.next <- id + 1;
  t.spans <- { id; name; parent; req; start; stop; counts } :: t.spans;
  id

let spans t = List.rev t.spans

let duration s = s.stop -. s.start

let named t name = List.filter (fun s -> s.name = name) (spans t)

let total t name = List.fold_left (fun a s -> a +. duration s) 0.0 (named t name)

let calls t name = List.length (named t name)

(* Sum of the [key] counts attached to the spans called [name]. *)
let sum_count t name key =
  List.fold_left
    (fun a s ->
       List.fold_left (fun a (k, v) -> if k = key then a +. v else a) a s.counts)
    0.0 (named t name)

(* Self time: a span's duration minus what its direct children cover. *)
let self_time t s =
  let kids =
    List.fold_left
      (fun a c -> if c.parent = s.id then a +. duration c else a)
      0.0 t.spans
  in
  duration s -. kids

let self_total t name =
  List.fold_left (fun a s -> a +. self_time t s) 0.0 (named t name)

let to_json t =
  let module Json = Merlin_report.Json in
  Json.List
    (List.map
       (fun s ->
          Json.Obj
            ([ ("id", Json.Num (float_of_int s.id));
               ("name", Json.Str s.name);
               ("parent", Json.Num (float_of_int s.parent));
               ("req", Json.Num (float_of_int s.req));
               ("start", Json.Num s.start);
               ("stop", Json.Num s.stop) ]
            @
            match s.counts with
            | [] -> []
            | cs -> [ ("counts", Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) cs)) ]))
       (spans t))
