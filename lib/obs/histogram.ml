type t = {
  (* Strictly increasing inclusive upper bounds; bucket i holds values v
     with bounds.(i-1) < v <= bounds.(i) (bucket 0: 0 <= v <= bounds.(0)).
     The final counts cell is the overflow bucket for v > bounds.(last). *)
  bounds : int array;
  counts : int array;
  mutable count : int;
  mutable sum : int;
  mutable min_v : int;  (* max_int when empty *)
  mutable max_v : int;  (* -1 when empty *)
  (* Negative samples are clamped to 0 before bucketing (a latency can't
     be negative), but silently folding them into bucket 0 hides the
     clock misuse that produced them — so every clamp is tallied here. *)
  mutable clamped : int;
}

(* Geometric bounds with ~8 buckets per octave (growth 2^(1/8) ~ 9%), so a
   percentile estimate is off by at most one bucket width (< 9.1% relative
   error), plus an exact linear region below 16.  Spanning 1 ns .. 200 s
   this is ~300 buckets — small enough to sit in cache, precise enough for
   tail latencies. *)
let default_bounds =
  let factor = Float.exp (Float.log 2.0 /. 8.0) in
  let last = 200_000_000_000 in
  let rec build acc b =
    if b >= last then List.rev (b :: acc)
    else
      let next = max (b + 1) (int_of_float (Float.round (float_of_int b *. factor))) in
      build (b :: acc) next
  in
  Array.of_list (build [] 1)

let validate_bounds bounds =
  let m = Array.length bounds in
  if m = 0 then invalid_arg "Histogram.create: empty bounds";
  if bounds.(0) < 1 then invalid_arg "Histogram.create: bounds must be >= 1";
  for i = 1 to m - 1 do
    if bounds.(i) <= bounds.(i - 1) then
      invalid_arg "Histogram.create: bounds not strictly increasing"
  done

let create ?bounds () =
  let bounds =
    match bounds with
    | None -> default_bounds (* shared, never mutated *)
    | Some b ->
        validate_bounds b;
        Array.copy b
  in
  {
    bounds;
    counts = Array.make (Array.length bounds + 1) 0;
    count = 0;
    sum = 0;
    min_v = max_int;
    max_v = -1;
    clamped = 0;
  }

(* Smallest i with v <= bounds.(i), or length bounds for overflow.  Pure
   int binary search: the record path neither allocates nor touches
   floats. *)
let bucket_index bounds v =
  let m = Array.length bounds in
  if v <= bounds.(0) then 0
  else if v > bounds.(m - 1) then m
  else begin
    (* invariant: bounds.(lo) < v <= bounds.(hi) *)
    let lo = ref 0 and hi = ref (m - 1) in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if v <= bounds.(mid) then hi := mid else lo := mid
    done;
    !hi
  end

let record t v =
  let v =
    if v < 0 then begin
      t.clamped <- t.clamped + 1;
      0
    end
    else v
  in
  let i = bucket_index t.bounds v in
  t.counts.(i) <- t.counts.(i) + 1;
  t.count <- t.count + 1;
  t.sum <- t.sum + v;
  if v < t.min_v then t.min_v <- v;
  if v > t.max_v then t.max_v <- v

let count t = t.count
let sum t = t.sum
let clamped t = t.clamped
let min_max t = if t.count = 0 then None else Some (t.min_v, t.max_v)

let mean t =
  if t.count = 0 then nan else float_of_int t.sum /. float_of_int t.count

let percentile t q =
  if Float.is_nan q then invalid_arg "Histogram.percentile: NaN percentile";
  if t.count = 0 then nan
  else begin
    let q = Float.max 0.0 (Float.min 100.0 q) in
    let rank =
      max 1 (int_of_float (Float.ceil (q /. 100.0 *. float_of_int t.count)))
    in
    (* Locate the bucket holding the rank-th smallest sample. *)
    let i = ref 0 and cum = ref t.counts.(0) in
    while !cum < rank do
      incr i;
      cum := !cum + t.counts.(!i)
    done;
    let i = !i in
    let lower = if i = 0 then 0 else t.bounds.(i - 1) in
    let upper =
      if i >= Array.length t.bounds then t.max_v else min t.bounds.(i) t.max_v
    in
    let below = !cum - t.counts.(i) in
    let frac = float_of_int (rank - below) /. float_of_int t.counts.(i) in
    let est = float_of_int lower +. (frac *. float_of_int (upper - lower)) in
    Float.max (float_of_int t.min_v) (Float.min (float_of_int t.max_v) est)
  end

let max_value t = if t.count = 0 then nan else float_of_int t.max_v

let merge_into ~into src =
  if Array.length into.bounds <> Array.length src.bounds || into.bounds <> src.bounds
  then invalid_arg "Histogram.merge_into: bucket layouts differ";
  Array.iteri (fun i c -> into.counts.(i) <- into.counts.(i) + c) src.counts;
  into.count <- into.count + src.count;
  into.sum <- into.sum + src.sum;
  into.clamped <- into.clamped + src.clamped;
  if src.min_v < into.min_v then into.min_v <- src.min_v;
  if src.max_v > into.max_v then into.max_v <- src.max_v

let reset t =
  Array.fill t.counts 0 (Array.length t.counts) 0;
  t.count <- 0;
  t.sum <- 0;
  t.clamped <- 0;
  t.min_v <- max_int;
  t.max_v <- -1

let iter_nonempty_cumulative t f =
  let cum = ref 0 in
  Array.iteri
    (fun i c ->
      if c > 0 then begin
        cum := !cum + c;
        let upper = if i >= Array.length t.bounds then None else Some t.bounds.(i) in
        f ~upper ~cumulative:!cum
      end)
    t.counts
