type method_ =
  [ `Brute
  | `Lp
  | `Hungarian
  | `Rh ]

let adjusted ~w ~base =
  if Array.length w <> Array.length base then
    invalid_arg "Winner_determination: base length <> advertiser count";
  Array.mapi (fun i row -> Array.map (fun x -> x -. base.(i)) row) w

let solve ~method_ ~w ~base =
  let w' = adjusted ~w ~base in
  match method_ with
  | `Brute ->
      let assignment, _ = Essa_matching.Brute.best ~w ~base () in
      assignment
  | `Lp -> Essa_lp.Assignment_lp.solve ~w:w' ()
  | `Hungarian -> Essa_matching.Hungarian.solve_classic ~w:w'
  | `Rh -> Essa_matching.Reduction.solve ~w:w' ()

let value ~w ~base assignment =
  Essa_matching.Assignment.total_value ~w ~base assignment
