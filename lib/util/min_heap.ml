type 'a t = {
  mutable priorities : float array;
  mutable payloads : 'a array;
  mutable size : int;
}

let create () = { priorities = [||]; payloads = [||]; size = 0 }

let size t = t.size
let is_empty t = t.size = 0

let swap t i j =
  let p = t.priorities.(i) in
  t.priorities.(i) <- t.priorities.(j);
  t.priorities.(j) <- p;
  let x = t.payloads.(i) in
  t.payloads.(i) <- t.payloads.(j);
  t.payloads.(j) <- x

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if t.priorities.(i) < t.priorities.(parent) then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.size && t.priorities.(l) < t.priorities.(!smallest) then smallest := l;
  if r < t.size && t.priorities.(r) < t.priorities.(!smallest) then smallest := r;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let push t ~priority payload =
  let cap = Array.length t.priorities in
  if t.size >= cap then begin
    let cap' = max 8 (2 * cap) in
    let priorities' = Array.make cap' 0.0 in
    Array.blit t.priorities 0 priorities' 0 t.size;
    t.priorities <- priorities';
    let payloads' = Array.make cap' payload in
    Array.blit t.payloads 0 payloads' 0 t.size;
    t.payloads <- payloads'
  end;
  t.priorities.(t.size) <- priority;
  t.payloads.(t.size) <- payload;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

let retain t keep =
  let n = t.size in
  t.size <- 0;
  for i = 0 to n - 1 do
    if keep t.payloads.(i) then begin
      t.priorities.(t.size) <- t.priorities.(i);
      t.payloads.(t.size) <- t.payloads.(i);
      t.size <- t.size + 1
    end
  done;
  for i = (t.size / 2) - 1 downto 0 do sift_down t i done

let min_priority t = if t.size = 0 then None else Some t.priorities.(0)

let pop t =
  if t.size = 0 then None
  else begin
    let result = (t.priorities.(0), t.payloads.(0)) in
    t.size <- t.size - 1;
    if t.size > 0 then begin
      t.priorities.(0) <- t.priorities.(t.size);
      t.payloads.(0) <- t.payloads.(t.size);
      sift_down t 0
    end;
    Some result
  end

let pop_le t v =
  let rec go acc =
    match min_priority t with
    | Some p when p <= v -> (
        match pop t with Some entry -> go (entry :: acc) | None -> List.rev acc)
    | _ -> List.rev acc
  in
  go []
