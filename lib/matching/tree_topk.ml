let merge ~count xs ys =
  let rec go n xs ys acc =
    if n = 0 then List.rev acc
    else
      match (xs, ys) with
      | [], [] -> List.rev acc
      | x :: xs', [] -> go (n - 1) xs' [] (x :: acc)
      | [], y :: ys' -> go (n - 1) [] ys' (y :: acc)
      | ((_, wx) as x) :: xs', ((_, wy) as y) :: ys' ->
          (* Ties favour the left (lower-index) subtree, matching the
             heap scan's first-seen-wins rule. *)
          if wx >= wy then go (n - 1) xs' ys (x :: acc)
          else go (n - 1) xs ys' (y :: acc)
  in
  go count xs ys []

let tree_merge ~w ~count =
  let n = Array.length w in
  let k = if n = 0 then 0 else Array.length w.(0) in
  let depth = ref 0 in
  let tops =
    Array.init k (fun j ->
        (* Combine leaves [lo, hi) bottom-up; track recursion depth. *)
        let rec combine lo hi level =
          if level > !depth then depth := level;
          if hi - lo = 1 then [ (lo, w.(lo).(j)) ]
          else begin
            let mid = (lo + hi) / 2 in
            merge ~count (combine lo mid (level + 1)) (combine mid hi (level + 1))
          end
        in
        if n = 0 then [] else combine 0 n 0)
  in
  (tops, !depth)
