type t = {
  advertisers : int array;
  reduced_w : float array array;
}

(* Canonical order on (score, id): higher score first, ties to the
   smaller id — or, with [worst], exactly the reverse. *)
let[@inline] precedes ~worst (sc : float) (id : int) ps pid =
  if worst then sc < ps || (sc = ps && id > pid)
  else sc > ps || (sc = ps && id < pid)

(* Insertion-select into the three parallel buffers: most rows lose to
   the kept tail at once, so a scan costs one comparison per row and
   boxes nothing. *)
let select ~rows ~ids ~len ~j ~count ~worst ~tk_ids ~tk_scores ~tk_slots =
  let size = ref 0 in
  if count > 0 then
    for slot = 0 to len - 1 do
      let id = ids.(slot) in
      if id >= 0 then begin
        let sc = rows.(slot).(j) in
        let full = !size >= count in
        if
          (not full)
          || precedes ~worst sc id tk_scores.(count - 1) tk_ids.(count - 1)
        then begin
          let p = ref (if full then count - 1 else !size) in
          if not full then incr size;
          while
            !p > 0 && precedes ~worst sc id tk_scores.(!p - 1) tk_ids.(!p - 1)
          do
            tk_scores.(!p) <- tk_scores.(!p - 1);
            tk_ids.(!p) <- tk_ids.(!p - 1);
            tk_slots.(!p) <- tk_slots.(!p - 1);
            decr p
          done;
          tk_scores.(!p) <- sc;
          tk_ids.(!p) <- id;
          tk_slots.(!p) <- slot
        end
      end
    done;
  !size

let top_per_slot ~w ~count =
  let n = Array.length w in
  let k = if n = 0 then 0 else Array.length w.(0) in
  let ids = Array.init n Fun.id in
  let tk_ids = Array.make count 0
  and tk_scores = Array.make count 0.0
  and tk_slots = Array.make count 0 in
  Array.init k (fun j ->
      let kept =
        select ~rows:w ~ids ~len:n ~j ~count ~worst:false ~tk_ids ~tk_scores
          ~tk_slots
      in
      List.init kept (fun i -> (tk_ids.(i), tk_scores.(i))))

let reduce ?top ~w () =
  let n = Array.length w in
  let k = if n = 0 then 0 else Array.length w.(0) in
  let top = match top with Some t -> t | None -> top_per_slot ~w ~count:k in
  let module Int_set = Set.Make (Int) in
  let selected =
    Array.fold_left
      (fun acc lst -> List.fold_left (fun acc (i, _) -> Int_set.add i acc) acc lst)
      Int_set.empty top
  in
  let advertisers = Array.of_list (Int_set.elements selected) in
  let reduced_w = Array.map (fun i -> Array.copy w.(i)) advertisers in
  { advertisers; reduced_w }

let solve ?top ~w () =
  let n = Array.length w in
  let k = if n = 0 then 0 else Array.length w.(0) in
  if n = 0 || k = 0 then Assignment.empty ~k
  else begin
    let r = reduce ?top ~w () in
    let reduced_assignment = Hungarian.solve ~w:r.reduced_w in
    Array.map
      (Option.map (fun local -> r.advertisers.(local)))
      reduced_assignment
  end
