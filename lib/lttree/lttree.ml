open Merlin_tech
open Merlin_net
open Merlin_curves

type chain = {
  buffer : Buffer_lib.buffer;
  directs : Sink.t list;
  chain : chain option;
}

type plan = { root_directs : Sink.t list; root_chain : chain option }

let rec chain_sinks c =
  c.directs @ (match c.chain with None -> [] | Some sub -> chain_sinks sub)

let plan_sinks p =
  p.root_directs
  @ (match p.root_chain with None -> [] | Some c -> chain_sinks c)

let rec chain_area c =
  c.buffer.Buffer_lib.area
  +. (match c.chain with None -> 0.0 | Some sub -> chain_area sub)

let plan_area p =
  match p.root_chain with None -> 0.0 | Some c -> chain_area c

let n_levels p =
  let rec depth = function None -> 0 | Some c -> 1 + depth c.chain in
  1 + depth p.root_chain

(* DP over suffixes of the required-time-sorted sink array.  F(i) is the
   curve of chain links driving sinks i..n-1: pick the direct group i..j,
   try every buffer to drive (group + next link), recurse on j+1. *)
let curve ~buffers ~max_fanout sinks =
  (match sinks with
   | [] -> invalid_arg "Lttree.curve: no sinks"
   | _ :: _ -> ());
  if max_fanout < 2 then invalid_arg "Lttree.curve: max_fanout < 2";
  let arr =
    Array.of_list
      (List.sort (fun a b -> Float.compare a.Sink.req b.Sink.req) sinks)
  in
  let n = Array.length arr in
  (* Prefix-style sums over the suffix groups. *)
  let group i j = Array.to_list (Array.sub arr i (j - i + 1)) in
  let group_load i j =
    let total = ref 0.0 in
    for t = i to j do total := !total +. arr.(t).Sink.cap done;
    !total
  in
  let group_req i = arr.(i).Sink.req in
  (* memo.(i) = curve of chain links for suffix i..n-1 (each link carries
     its own buffer).  Filled bottom-up (largest i first) so every cell's
     dependencies are ready when it fills, which lets one scratch builder
     serve all cells — a recursive formulation would interleave a
     callee's builder fill with the caller's. *)
  let memo = Array.make (n + 1) Curve.empty in
  let links i = memo.(i) in
  let bld = Curve.Builder.create () in
  for i = n - 1 downto 0 do
    Curve.Builder.clear bld;
    let try_group j =
      (* directs i..j; remaining j+1.. goes to the next link. *)
      let directs = group i j in
      let d_load = group_load i j and d_req = group_req i in
      let close_with_buffer ~req ~load ~area ~link_chain =
        Array.iter
          (fun b ->
             let breq = req -. Buffer_lib.delay b ~load in
             Curve.Builder.push bld ~req:breq ~load:b.Buffer_lib.input_cap
               ~area:(area +. b.Buffer_lib.area)
               { buffer = b; directs; chain = link_chain })
          buffers
      in
      if j = n - 1 then
        close_with_buffer ~req:d_req ~load:d_load ~area:0.0 ~link_chain:None
      else
        Curve.iter
          (fun (next : chain Solution.t) ->
             close_with_buffer
               ~req:(min d_req next.Solution.req)
               ~load:(d_load +. next.Solution.load)
               ~area:next.Solution.area
               ~link_chain:(Some next.Solution.data))
          (links (j + 1))
    in
    (* The link drives (j - i + 1) sinks plus the next link if any. *)
    for j = i to min (n - 1) (i + max_fanout - 1) do
      let width = j - i + 1 + (if j = n - 1 then 0 else 1) in
      if width <= max_fanout then try_group j
    done;
    memo.(i) <- Curve.Builder.build ~name:"Lttree.links" bld
  done;
  (* Root level: the driver (not a buffer) drives directs 0..j plus
     optionally the chain starting at j+1. *)
  let out = Curve.Builder.create () in
  let root_group j =
    let directs = group 0 j in
    let d_load = group_load 0 j and d_req = group_req 0 in
    if j = n - 1 then
      Curve.Builder.push out ~req:d_req ~load:d_load ~area:0.0
        { root_directs = directs; root_chain = None }
    else
      Curve.iter
        (fun (next : chain Solution.t) ->
           Curve.Builder.push out
             ~req:(min d_req next.Solution.req)
             ~load:(d_load +. next.Solution.load)
             ~area:next.Solution.area
             { root_directs = directs; root_chain = Some next.Solution.data })
        (links (j + 1))
  in
  for j = 0 to n - 1 do
    let width = j + 1 + (if j = n - 1 then 0 else 1) in
    if width <= max_fanout then root_group j
  done;
  Curve.Builder.build ~name:"Lttree.root" out

let best ~buffers ~max_fanout ~driver sinks =
  let bld = Curve.Builder.create () in
  Curve.iter
    (fun s ->
       let gate = Delay_model.delay driver ~load:s.Solution.load in
       Curve.Builder.push bld ~req:(s.Solution.req -. gate)
         ~load:s.Solution.load ~area:s.Solution.area s.Solution.data)
    (curve ~buffers ~max_fanout sinks);
  match Curve.best_req (Curve.Builder.build ~name:"Lttree.to_driver" bld) with
  | Some s -> s
  | None -> assert false (* curve is never empty for nonempty sinks *)
