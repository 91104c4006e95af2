type t = {
  values : int array;
  maxbids : int array;
  bids : int array;
  gained_by : int array;
  spent_by : int array;
  premiums : int array;
  target_rate : float;
  budget : int option;
  amt_spent : int Atomic.t;
      (* The one genuinely cross-keyword scalar: total spend.  Atomic so the
         partitioned serve mode can charge from concurrent keyword lanes;
         on the serial path it behaves exactly like the plain mutable it
         replaced (single writer, sequential reads). *)
}

let create ~values ?maxbids ?initial_bids ?premiums ?budget ~target_rate () =
  let nk = Array.length values in
  if nk = 0 then invalid_arg "Roi_state.create: no keywords";
  if not (target_rate > 0.0) then
    invalid_arg "Roi_state.create: target rate must be positive";
  (match budget with
  | Some b when b < 0 -> invalid_arg "Roi_state.create: negative budget"
  | _ -> ());
  let maxbids = match maxbids with Some m -> Array.copy m | None -> Array.copy values in
  let premiums =
    match premiums with Some p -> Array.copy p | None -> Array.make nk 0
  in
  if Array.length premiums <> nk then
    invalid_arg "Roi_state.create: premiums length mismatch";
  Array.iter
    (fun p -> if p < 0 then invalid_arg "Roi_state.create: negative premium")
    premiums;
  let initial_bids =
    match initial_bids with
    | Some b -> Array.copy b
    | None -> Array.map (fun m -> min m ((m + 1) / 2)) maxbids
  in
  if Array.length maxbids <> nk || Array.length initial_bids <> nk then
    invalid_arg "Roi_state.create: array length mismatch";
  Array.iteri
    (fun i v ->
      if v < 0 || maxbids.(i) < 0 then
        invalid_arg "Roi_state.create: negative value or maxbid";
      if initial_bids.(i) < 0 || initial_bids.(i) > maxbids.(i) then
        invalid_arg "Roi_state.create: initial bid outside [0, maxbid]")
    values;
  {
    values = Array.copy values;
    maxbids;
    bids = initial_bids;
    gained_by = Array.make nk 0;
    spent_by = Array.make nk 0;
    premiums;
    target_rate;
    budget;
    amt_spent = Atomic.make 0;
  }

let num_keywords t = Array.length t.values

let check_kw t kw =
  if kw < 0 || kw >= num_keywords t then
    invalid_arg (Printf.sprintf "Roi_state: keyword %d out of range" kw)

let value t ~keyword = check_kw t keyword; t.values.(keyword)
let maxbid t ~keyword = check_kw t keyword; t.maxbids.(keyword)
let bid t ~keyword = check_kw t keyword; t.bids.(keyword)
let amt_spent t = Atomic.get t.amt_spent
let target_rate t = t.target_rate
let premium t ~keyword = check_kw t keyword; t.premiums.(keyword)
let budget t = t.budget

let exhausted_at t ~amt =
  match t.budget with Some b -> amt >= b | None -> false

let exhausted t = exhausted_at t ~amt:(Atomic.get t.amt_spent)
let gained t ~keyword = check_kw t keyword; t.gained_by.(keyword)
let spent t ~keyword = check_kw t keyword; t.spent_by.(keyword)

let roi t ~keyword =
  check_kw t keyword;
  let g = t.gained_by.(keyword) and s = t.spent_by.(keyword) in
  if s > 0 then float_of_int g /. float_of_int s
  else if g > 0 then infinity
  else 0.0

type direction = Inc | Dec | Stay

let classify ~budget ~amt_spent ~target_rate ~time ~bid ~maxbid =
  let out_of_budget =
    match budget with Some b -> amt_spent >= b | None -> false
  in
  if out_of_budget then Stay
  else begin
    let spent = float_of_int amt_spent
    and budgeted = target_rate *. float_of_int time in
    if spent < budgeted && bid < maxbid then Inc
    else if spent > budgeted && bid > 0 then Dec
    else Stay
  end

let on_auction t ~time ~keyword =
  check_kw t keyword;
  match
    classify ~budget:t.budget ~amt_spent:(Atomic.get t.amt_spent)
      ~target_rate:t.target_rate ~time ~bid:t.bids.(keyword)
      ~maxbid:t.maxbids.(keyword)
  with
  | Inc -> t.bids.(keyword) <- t.bids.(keyword) + 1
  | Dec -> t.bids.(keyword) <- t.bids.(keyword) - 1
  | Stay -> ()

let charge t ~price =
  if price < 0 then invalid_arg "Roi_state.charge: negative price";
  Atomic.fetch_and_add t.amt_spent price + price

let note_win_kw t ~keyword ~price =
  check_kw t keyword;
  if price < 0 then invalid_arg "Roi_state.note_win_kw: negative price";
  t.spent_by.(keyword) <- t.spent_by.(keyword) + price;
  t.gained_by.(keyword) <- t.gained_by.(keyword) + t.values.(keyword)

let record_win t ~keyword ~price ~clicked =
  check_kw t keyword;
  if price < 0 then invalid_arg "Roi_state.record_win: negative price";
  if clicked then begin
    let total = charge t ~price in
    t.spent_by.(keyword) <- t.spent_by.(keyword) + price;
    t.gained_by.(keyword) <- t.gained_by.(keyword) + t.values.(keyword);
    (* Budget exhaustion retires every bid permanently. *)
    if exhausted_at t ~amt:total then
      Array.fill t.bids 0 (Array.length t.bids) 0
  end

let restore ~values ~maxbids ~bids ~gained_by ~spent_by ~premiums
    ~target_rate ~budget ~amt_spent =
  let nk = Array.length values in
  if nk = 0 then invalid_arg "Roi_state.restore: no keywords";
  if
    Array.length maxbids <> nk || Array.length bids <> nk
    || Array.length gained_by <> nk
    || Array.length spent_by <> nk
    || Array.length premiums <> nk
  then invalid_arg "Roi_state.restore: array length mismatch";
  if not (target_rate > 0.0) then
    invalid_arg "Roi_state.restore: target rate must be positive";
  if amt_spent < 0 then invalid_arg "Roi_state.restore: negative spend";
  {
    values = Array.copy values;
    maxbids = Array.copy maxbids;
    bids = Array.copy bids;
    gained_by = Array.copy gained_by;
    spent_by = Array.copy spent_by;
    premiums = Array.copy premiums;
    target_rate;
    budget;
    amt_spent = Atomic.make amt_spent;
  }

let copy t =
  {
    values = Array.copy t.values;
    maxbids = Array.copy t.maxbids;
    bids = Array.copy t.bids;
    gained_by = Array.copy t.gained_by;
    spent_by = Array.copy t.spent_by;
    premiums = Array.copy t.premiums;
    target_rate = t.target_rate;
    budget = t.budget;
    amt_spent = Atomic.make (Atomic.get t.amt_spent);
  }

let equal a b =
  a.values = b.values && a.maxbids = b.maxbids && a.bids = b.bids
  && a.gained_by = b.gained_by && a.spent_by = b.spent_by
  && a.premiums = b.premiums
  && a.target_rate = b.target_rate && a.budget = b.budget
  && Atomic.get a.amt_spent = Atomic.get b.amt_spent
