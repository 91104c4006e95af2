(* Jonker–Volgenant successive shortest augmenting paths with dual
   potentials (the standard O(rows · cols · path) LAP formulation).  Rows
   are always all matched; "leave unmatched" is modelled with null columns
   of cost 0, so the minimum-cost perfect row-matching equals the
   maximum-weight (possibly partial) matching under cost = -weight. *)

let lap ~nrows ~ncols ~cost =
  (* 1-indexed internals; column 0 is the virtual start column. *)
  let u = Array.make (nrows + 1) 0.0 in
  let v = Array.make (ncols + 1) 0.0 in
  let p = Array.make (ncols + 1) 0 in
  (* p.(j) = row matched to column j, 0 if free *)
  let way = Array.make (ncols + 1) 0 in
  for i = 1 to nrows do
    p.(0) <- i;
    let j0 = ref 0 in
    let minv = Array.make (ncols + 1) infinity in
    let used = Array.make (ncols + 1) false in
    let augmenting = ref true in
    while !augmenting do
      used.(!j0) <- true;
      let i0 = p.(!j0) in
      let delta = ref infinity and j1 = ref 0 in
      for j = 1 to ncols do
        if not used.(j) then begin
          let cur = cost (i0 - 1) (j - 1) -. u.(i0) -. v.(j) in
          if cur < minv.(j) then begin
            minv.(j) <- cur;
            way.(j) <- !j0
          end;
          if minv.(j) < !delta then begin
            delta := minv.(j);
            j1 := j
          end
        end
      done;
      (* A free finite-cost column is always reachable (null columns). *)
      assert (!delta < infinity);
      for j = 0 to ncols do
        if used.(j) then begin
          u.(p.(j)) <- u.(p.(j)) +. !delta;
          v.(j) <- v.(j) -. !delta
        end
        else minv.(j) <- minv.(j) -. !delta
      done;
      j0 := !j1;
      if p.(!j0) = 0 then augmenting := false
    done;
    (* Flip matched edges along the augmenting path. *)
    let j = ref !j0 in
    while !j <> 0 do
      let j' = way.(!j) in
      p.(!j) <- p.(j');
      j := j'
    done
  done;
  p

(* [lap] specialized to the reduced-auction orientation of [solve] (rows =
   slots, columns = the n candidates then k null columns, cost =
   -weight / infinity / 0).  The arithmetic and the ascending strict-<
   scans are those of [lap], so the assignment (and every tie-break) is
   unchanged; three things make it cheaper on the auction hot path:

   - the candidate costs are laid out once per solve in one contiguous
     slot-major array, so a scan is a sequential read, not a row-pointer
     chase plus a sign test per visit;
   - only the matched null columns and the first free one are scanned.
     A free column is never marked used (reaching it ends the phase), so
     every free null keeps v = 0 and, within a phase, receives the same
     [cur] and hence the same [minv] as every other free null.  The
     strict-< scan therefore never picks a free null above the lowest
     one, and matched columns stay matched, so the matched nulls are
     always the prefix n+1..n+[nulls] and the remaining free nulls are
     dead work;
   - the proven-in-range inner loops use unsafe reads. *)
let lap_reduced ~nrows ~n ~w =
  let ncols = n + nrows in
  let cost = Array.make (nrows * n) infinity in
  for c = 0 to n - 1 do
    let row = w.(c) in
    for r = 0 to nrows - 1 do
      let x = row.(r) in
      if x > 0.0 then Array.unsafe_set cost ((r * n) + c) (-.x)
    done
  done;
  let u = Array.make (nrows + 1) 0.0 in
  let v = Array.make (ncols + 1) 0.0 in
  let p = Array.make (ncols + 1) 0 in
  let way = Array.make (ncols + 1) 0 in
  (* Dijkstra scratch, reused across the row phases (reset by fill). *)
  let minv = Array.make (ncols + 1) infinity in
  let used = Array.make (ncols + 1) false in
  let nulls = ref 0 in
  for i = 1 to nrows do
    p.(0) <- i;
    let j0 = ref 0 in
    (* Columns 1..n, the matched nulls, then the first free null; at most
       i-1 nulls are matched before phase i, so [last] <= ncols. *)
    let last = n + !nulls + 1 in
    Array.fill minv 0 (last + 1) infinity;
    Array.fill used 0 (last + 1) false;
    let augmenting = ref true in
    while !augmenting do
      Array.unsafe_set used !j0 true;
      let i0 = Array.unsafe_get p !j0 in
      let delta = ref infinity and j1 = ref 0 in
      let base = (i0 - 1) * n - 1 in
      let ui0 = Array.unsafe_get u i0 in
      for j = 1 to n do
        if not (Array.unsafe_get used j) then begin
          let cur =
            Array.unsafe_get cost (base + j) -. ui0 -. Array.unsafe_get v j
          in
          if cur < Array.unsafe_get minv j then begin
            Array.unsafe_set minv j cur;
            Array.unsafe_set way j !j0
          end;
          if Array.unsafe_get minv j < !delta then begin
            delta := Array.unsafe_get minv j;
            j1 := j
          end
        end
      done;
      for j = n + 1 to last do
        if not (Array.unsafe_get used j) then begin
          let cur = -.ui0 -. Array.unsafe_get v j in
          if cur < Array.unsafe_get minv j then begin
            Array.unsafe_set minv j cur;
            Array.unsafe_set way j !j0
          end;
          if Array.unsafe_get minv j < !delta then begin
            delta := Array.unsafe_get minv j;
            j1 := j
          end
        end
      done;
      assert (!delta < infinity);
      let delta = !delta in
      for j = 0 to last do
        if Array.unsafe_get used j then begin
          let pj = Array.unsafe_get p j in
          Array.unsafe_set u pj (Array.unsafe_get u pj +. delta);
          Array.unsafe_set v j (Array.unsafe_get v j -. delta)
        end
        else Array.unsafe_set minv j (Array.unsafe_get minv j -. delta)
      done;
      j0 := !j1;
      if p.(!j0) = 0 then augmenting := false
    done;
    if !j0 > n then incr nulls;
    let j = ref !j0 in
    while !j <> 0 do
      let j' = way.(!j) in
      p.(!j) <- p.(j');
      j := j'
    done
  done;
  p

let check_matrix w =
  let n = Array.length w in
  if n = 0 then (0, 0)
  else begin
    let k = Array.length w.(0) in
    Array.iter
      (fun row ->
        if Array.length row <> k then
          invalid_arg "Hungarian: ragged weight matrix")
      w;
    (n, k)
  end

let solve ~w =
  let n, k = check_matrix w in
  let assignment = Assignment.empty ~k in
  if n = 0 || k = 0 then assignment
  else begin
    (* Rows = slots (k phases); columns = n advertisers then k nulls.
       Non-positive edges are excluded outright, so a slot is left empty
       rather than given to an advertiser with nothing to gain from it
       (matches Brute.best's preference for the empty allocation). *)
    let p = lap_reduced ~nrows:k ~n ~w in
    for j = 1 to n do
      if p.(j) <> 0 then assignment.(p.(j) - 1) <- Some (j - 1)
    done;
    assignment
  end

let solve_classic ~w =
  let n, k = check_matrix w in
  let assignment = Assignment.empty ~k in
  if n = 0 || k = 0 then assignment
  else begin
    (* Rows = advertisers (n phases); columns = k slots then one private
       null column per advertiser.  This is the "advertisers on the left"
       orientation: Θ(nk(n+k)), quadratic in n, as reported in the paper
       for method H. *)
    let cost r c =
      if c < k then (if w.(r).(c) > 0.0 then -.w.(r).(c) else infinity)
      else if c = k + r then 0.0
      else infinity
    in
    let p = lap ~nrows:n ~ncols:(k + n) ~cost in
    for c = 1 to k do
      if p.(c) <> 0 then assignment.(c - 1) <- Some (p.(c) - 1)
    done;
    assignment
  end

let optimal_weight ~w = Assignment.matching_weight ~w (solve ~w)
