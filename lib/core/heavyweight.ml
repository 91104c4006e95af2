type result = {
  heavy_slots : bool array;
  assignment : Essa_matching.Assignment.t;
  value : float;
}

let pattern_of_mask ~k mask = Array.init k (fun j -> mask land (1 lsl j) <> 0)

(* Optimal allocation for one declared pattern: heavyweights may only sit
   in heavy slots, lightweights only in light slots, so the matching
   decomposes into two independent problems (solved here as one matching
   with inadmissible edges pushed below the unassigned baseline). *)
let solve_pattern ~model ~bids ~heavy_slots =
  let module CM = Essa_prob.Class_model in
  let w, base = CM.revenue_matrix model ~bids ~heavy_slots in
  let n = CM.n model and k = CM.k model in
  (* Adjusted weights with inadmissible edges forced unattractive: an edge
     below its baseline is never chosen by the matcher. *)
  let adjusted =
    Array.init n (fun i ->
        Array.init k (fun j ->
            if CM.admissible model ~adv:i ~slot:(j + 1) ~heavy_slots then
              w.(i).(j) -. base.(i)
            else -1.0))
  in
  let assignment = Essa_matching.Reduction.solve ~w:adjusted () in
  let value =
    Array.to_list assignment
    |> List.mapi (fun j0 cell ->
           match cell with None -> 0.0 | Some i -> w.(i).(j0) -. base.(i))
    |> List.fold_left ( +. ) 0.0
    |> ( +. ) (Array.fold_left ( +. ) 0.0 base)
  in
  (assignment, value)

let check ~model ~bids =
  let module CM = Essa_prob.Class_model in
  if Array.length bids <> CM.n model then
    invalid_arg "Heavyweight: bids length <> model advertisers";
  Array.iter (Essa_bidlang.Bids.validate ~k:(CM.k model)) bids

let best_of results =
  (* Lexicographically smallest mask wins ties: results arrive in mask
     order and we keep strict improvements only. *)
  let best = ref None in
  List.iter
    (fun (mask, assignment, value) ->
      match !best with
      | None -> best := Some (mask, assignment, value)
      | Some (_, _, bv) -> if value > bv then best := Some (mask, assignment, value))
    results;
  match !best with
  | Some (mask, assignment, value) -> (mask, assignment, value)
  | None -> invalid_arg "Heavyweight: no patterns (k = 0?)"

let solve ~model ~bids () =
  check ~model ~bids;
  let k = Essa_prob.Class_model.k model in
  let results =
    List.init (1 lsl k) (fun mask ->
        let heavy_slots = pattern_of_mask ~k mask in
        let assignment, value = solve_pattern ~model ~bids ~heavy_slots in
        (mask, assignment, value))
  in
  let mask, assignment, value = best_of results in
  { heavy_slots = pattern_of_mask ~k mask; assignment; value }

let solve_brute ~model ~bids () =
  check ~model ~bids;
  let module CM = Essa_prob.Class_model in
  let k = CM.k model in
  let results =
    List.init (1 lsl k) (fun mask ->
        let heavy_slots = pattern_of_mask ~k mask in
        let w, base = CM.revenue_matrix model ~bids ~heavy_slots in
        let allowed ~adv ~slot = CM.admissible model ~adv ~slot ~heavy_slots in
        let assignment, value = Essa_matching.Brute.best ~allowed ~w ~base () in
        (mask, assignment, value))
  in
  let mask, assignment, value = best_of results in
  { heavy_slots = pattern_of_mask ~k mask; assignment; value }
