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

(* Per-domain workspace of [lap_reduced]: the slot-major cost array, the
   potentials [u]/[v], the matching [p], the path links [way], the
   Dijkstra distances [minv], the [used] marks, and the phase's log: the
   columns [fin]alized and the step [deltas], in step order.  It grows on
   demand and is never shared across domains, so a solve allocates
   nothing once the domain has seen its largest shape.  (One per keyword
   scratch instead would multiply it by the thousands of keywords a flat
   engine serves, for no gain.) *)
type workspace = {
  mutable cost : float array;
  mutable u : float array;
  mutable v : float array;
  mutable p : int array;
  mutable way : int array;
  mutable minv : float array;
  mutable used : bool array;
  mutable fin : int array;
  mutable deltas : float array;
}

let workspace_key =
  Domain.DLS.new_key (fun () ->
      {
        cost = [||];
        u = [||];
        v = [||];
        p = [||];
        way = [||];
        minv = [||];
        used = [||];
        fin = [||];
        deltas = [||];
      })

let grown a need fill = Array.make (max need (2 * Array.length a)) fill

let workspace ~nrows ~n =
  let ws = Domain.DLS.get workspace_key in
  let cols = n + nrows + 1 in
  if Array.length ws.cost < nrows * n then
    ws.cost <- grown ws.cost (nrows * n) 0.0;
  if Array.length ws.u < nrows + 1 then ws.u <- grown ws.u (nrows + 1) 0.0;
  if Array.length ws.p < cols then begin
    ws.v <- grown ws.v cols 0.0;
    ws.p <- grown ws.p cols 0;
    ws.way <- grown ws.way cols 0;
    ws.minv <- grown ws.minv cols 0.0;
    ws.used <- grown ws.used cols false;
    ws.fin <- grown ws.fin cols 0;
    ws.deltas <- grown ws.deltas cols 0.0
  end;
  ws

(* [lap] specialized to the reduced-auction orientation of [solve] (rows =
   slots, columns = the n candidates then k null columns, cost =
   -weight / infinity / 0), in the workspace.  Every float that [lap]
   computes is computed here by the same operations in the same order,
   and the scans are [lap]'s ascending strict-< scans, so the assignment
   (and every tie-break) is [lap]'s bit for bit.  What makes it cheaper:

   - one pass per Dijkstra step.  [lap] ends a step with a second pass
     over every column: [minv -= delta] on the unused ones, the u/v
     shift on the used ones.  Here the subtraction is fused into the next
     step's scan, which visits every unused column anyway (the pending
     delta starts at 0, and x - 0 = x), and the shifts are deferred to
     the end of the phase: each column finalized at step s, and the row
     matched to it, take the deltas of steps s, s+1, ... from the
     phase's log in step order — the very sequence of roundings [lap]
     applies one step at a time, at the cost of the finalized columns
     only;
   - the candidate costs are laid out once per solve in one contiguous
     slot-major array, so a scan is a sequential read;
   - only the matched null columns and the first free one are scanned.
     A free column is never finalized (reaching it ends the phase), so
     every free null keeps v = 0 and, within a phase, receives the same
     [cur] and hence the same [minv] as every other free null.  The
     strict-< scan therefore never picks a free null above the lowest
     one, and matched columns stay matched, so the matched nulls are
     always the prefix n+1..n+[nulls] and the remaining free nulls are
     dead work;
   - the proven-in-range inner loops use unsafe reads. *)
let lap_reduced ws ~nrows ~n ~w =
  let ncols = n + nrows in
  let cost = ws.cost in
  for c = 0 to n - 1 do
    let row = w.(c) in
    for r = 0 to nrows - 1 do
      let x = row.(r) in
      Array.unsafe_set cost ((r * n) + c) (if x > 0.0 then -.x else infinity)
    done
  done;
  let u = ws.u and v = ws.v and p = ws.p and way = ws.way in
  let minv = ws.minv and used = ws.used in
  let fin = ws.fin and deltas = ws.deltas in
  Array.fill u 0 (nrows + 1) 0.0;
  Array.fill v 0 (ncols + 1) 0.0;
  Array.fill p 0 (ncols + 1) 0;
  let nulls = ref 0 in
  for i = 1 to nrows do
    p.(0) <- i;
    let j0 = ref 0 in
    (* Columns 1..n, the matched nulls, then the first free null; at most
       i-1 nulls are matched before phase i, so [last] <= ncols.  [way] is
       written whenever [minv] first turns finite, so it needs no reset. *)
    let last = n + !nulls + 1 in
    Array.fill minv 0 (last + 1) infinity;
    Array.fill used 0 (last + 1) false;
    let steps = ref 0 and pending = ref 0.0 in
    let augmenting = ref true in
    while !augmenting do
      let jf = !j0 in
      Array.unsafe_set used jf true;
      Array.unsafe_set fin !steps jf;
      let i0 = Array.unsafe_get p jf in
      let delta = ref infinity and j1 = ref 0 in
      let base = (i0 - 1) * n - 1 in
      let ui0 = Array.unsafe_get u i0 and prev = !pending in
      for j = 1 to n do
        if not (Array.unsafe_get used j) then begin
          let m = Array.unsafe_get minv j -. prev in
          let cur =
            Array.unsafe_get cost (base + j) -. ui0 -. Array.unsafe_get v j
          in
          let m =
            if cur < m then begin
              Array.unsafe_set way j jf;
              cur
            end
            else m
          in
          Array.unsafe_set minv j m;
          if m < !delta then begin
            delta := m;
            j1 := j
          end
        end
      done;
      for j = n + 1 to last do
        if not (Array.unsafe_get used j) then begin
          let m = Array.unsafe_get minv j -. prev in
          let cur = -.ui0 -. Array.unsafe_get v j in
          let m =
            if cur < m then begin
              Array.unsafe_set way j jf;
              cur
            end
            else m
          in
          Array.unsafe_set minv j m;
          if m < !delta then begin
            delta := m;
            j1 := j
          end
        end
      done;
      assert (!delta < infinity);
      Array.unsafe_set deltas !steps !delta;
      incr steps;
      pending := !delta;
      j0 := !j1;
      if p.(!j0) = 0 then augmenting := false
    done;
    for f = 0 to !steps - 1 do
      let j = Array.unsafe_get fin f in
      let pj = Array.unsafe_get p j in
      for s = f to !steps - 1 do
        let delta = Array.unsafe_get deltas s in
        Array.unsafe_set u pj (Array.unsafe_get u pj +. delta);
        Array.unsafe_set v j (Array.unsafe_get v j -. delta)
      done
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
    let p = lap_reduced (workspace ~nrows:k ~n) ~nrows:k ~n ~w in
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
