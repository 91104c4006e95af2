type tag = In_inc | In_dec | In_const

type logical_state = {
  inc : Adjustment_list.t array;
  dec : Adjustment_list.t array;
  const_ : Adjustment_list.t array;
  (* Per-keyword dirty epoch for the adjustment-list machinery: bumped by
     every placement that structurally changes a keyword's lists (reseat
     skips don't count — they change nothing the engine can observe).
     Summed with the other monotone sources in [epoch_of]. *)
  l_epoch : int array;
  tag : tag array array;                              (* kw × adv *)
  cell_version : int array array;                     (* kw × adv *)
  inc_bounds : (int * int) Essa_util.Min_heap.t array;  (* (adv, version) *)
  dec_bounds : (int * int) Essa_util.Min_heap.t array;
  time_triggers : (int * int) Essa_util.Min_heap.t;
  adv_version : int array;
  (* stored.(kw).(adv) mirrors the stored (pre-adjustment) bid kept in the
     program's current list, so random access to an effective bid is two
     array reads instead of a hash-map lookup — the TA hot path. *)
  stored : int array array;
}

(* Tabular mode: each program's per-keyword state lives in boxed
   relational rows (as in the paper's architecture, where strategies are
   SQL programs over private Keywords/Bids tables), and every auction
   evaluates every program against those rows — relevance refresh,
   spend-rate condition, bid update, Bids-table refresh.  This is the
   realistic per-program cost that Section IV's techniques eliminate; the
   ultra-lean [Naive] mode remains as the compiled-strategy lower bound
   used by unit tests. *)
type tabular_state = {
  (* rows.(adv).(kw) = [| maxbid; roi; bid; relevance; kvalue; gained; spent |] *)
  rows : Essa_relalg.Value.t array array array;
  out_bids : Essa_relalg.Value.t array;  (* per adv: refreshed output bid *)
  t_index : Bid_index.t;
}

(* Sql mode: every program is a full Sql_program — the Fig. 5 trigger
   machinery interpreted over relational tables.  The most faithful and
   most expensive execution strategy; used to validate that the entire
   interpretation stack (parser, statement AST, correlated subqueries,
   triggers) agrees with the lean modes. *)
type sql_state = { programs : Sql_program.t array }

(* Partitioned (per-keyword) execution strategies.  Decisions never read
   the live atomic spend cells: every auction starts from a spend
   *snapshot* taken through the {!State_store}, so the auction outcome is
   a pure function of keyword-local state + snapshot — replayable
   bit-for-bit from a recorded snapshot.  The cross-keyword effects of a
   win (spend moved, possibly exhaustion) are applied lazily: each
   keyword notices the spend change in its own next auction's snapshot
   and re-seats / retires locally.  One lane owns each keyword, so all
   per-keyword structures are single-writer. *)
type logical_p_state = {
  lp_base : logical_state;  (* time_triggers/adv_version fields unused *)
  lp_store : State_store.t;
  (* Per-keyword spend-rate trigger heaps, keyed on the keyword's local
     clock; entries are (adv, lp_version.(kw).(adv)) for invalidation. *)
  lp_time_triggers : (int * int) Essa_util.Min_heap.t array;
  lp_version : int array array;  (* kw × adv *)
  (* seen.(kw).(adv): the spend reading this keyword last classified the
     advertiser against; a differing snapshot entry triggers the deferred
     keyword-local re-seat. *)
  lp_seen : int array array;
}

type strategy =
  | Naive of Bid_index.t
  | Tabular of tabular_state
  | Logical of logical_state
  | Sql of sql_state
  | Logical_p of logical_p_state
  | Flat_p of State_store.t
      (* The scalable partitioned strategy: all state lives in the flat
         store's slot-indexed partitions ([states] is empty), and the
         whole begin/record step is delegated to
         State_store.flat_begin_auction / flat_record_win. *)

type t = {
  states : Roi_state.t array;  (* empty for Flat_p *)
  nk : int;
  fleet_n : int;
  strategy : strategy;
  (* Per-keyword fleet-level dirty overlay: bumped by mutation paths that
     don't flow through a [Bid_index], a [logical_state] or a
     [State_store] (bulk adjustments, clicked wins on the serial
     strategies, every Sql auction).  [epoch_of] sums it with the
     strategy's own monotone counters. *)
  f_epochs : int array;
}

let n t = t.fleet_n
let num_keywords t = t.nk

let is_flat t = match t.strategy with Flat_p _ -> true | _ -> false

let state t ~adv =
  match t.strategy with
  | Flat_p _ -> invalid_arg "Roi_fleet.state: flat fleet has no Roi_state"
  | _ -> t.states.(adv)

let amt_spent t ~adv =
  match t.strategy with
  | Flat_p store -> State_store.spend store ~adv
  | _ -> Roi_state.amt_spent t.states.(adv)

let target_rate t ~adv =
  match t.strategy with
  | Flat_p store -> State_store.flat_target store ~adv
  | _ -> Roi_state.target_rate t.states.(adv)

(* Layout-independent accessors for the replay checker: static bid
   parameters looked up without assuming a Roi_state per advertiser. *)

let budget_of t ~adv =
  match t.strategy with
  | Flat_p store -> State_store.flat_budget store ~adv
  | _ -> Roi_state.budget t.states.(adv)

let premium_of t ~adv ~keyword =
  match t.strategy with
  | Flat_p store -> State_store.flat_premium store ~keyword ~adv
  | _ -> Roi_state.premium t.states.(adv) ~keyword

let snapshot_index t ~keyword ~adv =
  match t.strategy with
  | Flat_p store -> State_store.flat_slot store ~keyword ~adv
  | _ ->
      ignore keyword;
      Some adv

(* ------------------------------------------------------------------ *)
(* Spend-rate flip times.  The spending rate amt/t of a losing program
   decreases monotonically in t, so "overspending" flips to "at target"
   to "underspending" at computable critical times.  The predicates below
   are evaluated with exactly the comparison Roi_state.classify uses. *)

let first_matching ~flipped ~estimate ~after =
  let t = ref (max (after + 1) (max 1 estimate)) in
  (* The estimate can overshoot by a float ulp or two; walk back to the
     boundary, then forward to the exact first flip after [after]. *)
  while !t > after + 1 && flipped (!t - 1) do
    decr t
  done;
  while not (flipped !t) do
    incr t
  done;
  !t

let first_not_over ~amt ~target ~after =
  let flipped time = not (float_of_int amt > target *. float_of_int time) in
  let estimate = int_of_float (ceil (float_of_int amt /. target)) in
  first_matching ~flipped ~estimate ~after

let first_under ~amt ~target ~after =
  let flipped time = float_of_int amt < target *. float_of_int time in
  let estimate = int_of_float (floor (float_of_int amt /. target)) + 1 in
  first_matching ~flipped ~estimate ~after

(* ------------------------------------------------------------------ *)
(* Logical-strategy internals *)

let list_of ls ~keyword = function
  | In_inc -> ls.inc.(keyword)
  | In_dec -> ls.dec.(keyword)
  | In_const -> ls.const_.(keyword)

let effective_bid ls ~adv ~keyword =
  ls.stored.(keyword).(adv)
  + Adjustment_list.adjustment (list_of ls ~keyword ls.tag.(keyword).(adv))

(* Decide the list [adv] belongs in under its current condition, arm the
   bound trigger that will evict it when the shared adjustment carries its
   bid to a boundary, and update the mirrors; return that list and the
   effective bid to insert at.  The caller has already removed [adv] from
   its previous list, and inserts it: one cell at a time ([place]) or a
   batch per list ([insert_seated]).  [amt] is the spend reading
   classification uses: the live cell on the serial path, the auction's
   snapshot entry on the partitioned path. *)
let seat ls states ~adv ~keyword ~time ~effective ~amt =
  let st = states.(adv) in
  ls.l_epoch.(keyword) <- ls.l_epoch.(keyword) + 1;
  ls.cell_version.(keyword).(adv) <- ls.cell_version.(keyword).(adv) + 1;
  let version = ls.cell_version.(keyword).(adv) in
  let maxbid = Roi_state.maxbid st ~keyword in
  (* Budget exhaustion retires the bid: mirror Roi_state.record_win, which
     zeroes every bid the moment the budget is reached. *)
  let effective = if Roi_state.exhausted_at st ~amt then 0 else effective in
  let tag =
    match
      Roi_state.classify ~budget:(Roi_state.budget st) ~amt_spent:amt
        ~target_rate:(Roi_state.target_rate st) ~time ~bid:effective ~maxbid
    with
    | Roi_state.Inc -> In_inc
    | Roi_state.Dec -> In_dec
    | Roi_state.Stay -> In_const
  in
  let list = list_of ls ~keyword tag in
  let stored = effective - Adjustment_list.adjustment list in
  ls.tag.(keyword).(adv) <- tag;
  ls.stored.(keyword).(adv) <- stored;
  (match tag with
  | In_inc ->
      Essa_util.Min_heap.push ls.inc_bounds.(keyword)
        ~priority:(float_of_int (maxbid - stored))
        (adv, version)
  | In_dec ->
      Essa_util.Min_heap.push ls.dec_bounds.(keyword)
        ~priority:(float_of_int stored)
        (adv, version)
  | In_const -> ());
  (list, effective)

let place ls states ~adv ~keyword ~time ~effective ~amt =
  let list, effective = seat ls states ~adv ~keyword ~time ~effective ~amt in
  Adjustment_list.insert list ~id:adv ~effective

(* Insert seated (adv, list, effective) cells of one keyword, one merge
   per list: a batch of m moves costs one pass over each list instead of
   m shifts. *)
let insert_seated ls ~keyword seated =
  List.iter
    (fun list ->
      match
        List.filter_map
          (fun (adv, l, effective) -> if l == list then Some (adv, effective) else None)
          seated
      with
      | [] -> ()
      | entries -> Adjustment_list.insert_many list entries)
    [ ls.inc.(keyword); ls.dec.(keyword); ls.const_.(keyword) ]

(* Re-seat one (adv, keyword) cell against a spend reading, skipping the
   list remove/insert when neither the list membership nor the stored bid
   would change — the common case after a win: spend moved but the
   classification on most keywords did not.  The skip leaves the cell's
   version and its pending bound trigger untouched; both remain valid
   because tag and stored bid are exactly what they were when the trigger
   was armed.  It also spares the two O(n) shifts a move between sorted
   arrays costs. *)
let reseat ls states ~adv ~keyword ~time ~amt =
  let tag = ls.tag.(keyword).(adv) in
  let list = list_of ls ~keyword tag in
  let effective = ls.stored.(keyword).(adv) + Adjustment_list.adjustment list in
  let st = states.(adv) in
  let effective' = if Roi_state.exhausted_at st ~amt then 0 else effective in
  let target =
    match
      Roi_state.classify ~budget:(Roi_state.budget st) ~amt_spent:amt
        ~target_rate:(Roi_state.target_rate st) ~time ~bid:effective'
        ~maxbid:(Roi_state.maxbid st ~keyword)
    with
    | Roi_state.Inc -> In_inc
    | Roi_state.Dec -> In_dec
    | Roi_state.Stay -> In_const
  in
  if target = tag && effective' = effective then ()
  else begin
    Adjustment_list.remove list ~id:adv;
    place ls states ~adv ~keyword ~time ~effective ~amt
  end

let reclassify_all ls states ~adv ~time =
  let nk = Array.length ls.inc in
  let amt = Roi_state.amt_spent states.(adv) in
  for keyword = 0 to nk - 1 do
    reseat ls states ~adv ~keyword ~time ~amt
  done

(* The first future spend-rate flip for a program whose spend reading is
   [amt], or None while it is (strictly) underspending / exhausted. *)
let critical_time st ~amt ~time =
  let target = Roi_state.target_rate st in
  let spent = float_of_int amt and budgeted = target *. float_of_int time in
  if Roi_state.exhausted_at st ~amt then None
    (* spend-rate flips no longer matter: classification is Stay forever *)
  else if spent > budgeted then Some (first_not_over ~amt ~target ~after:time)
  else if spent = budgeted then Some (first_under ~amt ~target ~after:time)
  else None

(* Keep the invariant: whenever a program is not (strictly) underspending,
   one valid spend-rate trigger is pending for the first future flip. *)
let install_time_trigger ls states ~adv ~time =
  let st = states.(adv) in
  match critical_time st ~amt:(Roi_state.amt_spent st) ~time with
  | None -> ()
  | Some when_ ->
      Essa_util.Min_heap.push ls.time_triggers ~priority:(float_of_int when_)
        (adv, ls.adv_version.(adv))

let fire_time_triggers ls states ~time =
  List.iter
    (fun (_, (adv, version)) ->
      if version = ls.adv_version.(adv) then begin
        reclassify_all ls states ~adv ~time;
        install_time_trigger ls states ~adv ~time
      end)
    (Essa_util.Min_heap.pop_le ls.time_triggers (float_of_int time))

let fire_bound_triggers ?amt_of ls states ~time ~keyword =
  let amt_of =
    match amt_of with
    | Some f -> f
    | None -> fun adv -> Roi_state.amt_spent states.(adv)
  in
  (* Every due cell leaves the heap's list in one batch: one removal pass
     and one merge per destination list.  A bulk adjustment can carry
     hundreds of bids to a boundary at once (all members that entered at
     the same distance from it), and a shift per move would then cost
     hundreds of passes over a list. *)
  let fire_heap heap threshold expected_tag =
    let list = list_of ls ~keyword expected_tag in
    let moved =
      List.filter_map
        (fun (_, (adv, version)) ->
          if
            version = ls.cell_version.(keyword).(adv)
            && ls.tag.(keyword).(adv) = expected_tag
          then begin
            let effective =
              ls.stored.(keyword).(adv) + Adjustment_list.adjustment list
            in
            let dest, effective =
              seat ls states ~adv ~keyword ~time ~effective ~amt:(amt_of adv)
            in
            Some (adv, dest, effective)
          end
          else None)
        (Essa_util.Min_heap.pop_le heap threshold)
    in
    match moved with
    | [] -> ()
    | _ ->
        Adjustment_list.remove_many list (List.map (fun (adv, _, _) -> adv) moved);
        insert_seated ls ~keyword moved
  in
  fire_heap ls.inc_bounds.(keyword)
    (float_of_int (Adjustment_list.adjustment ls.inc.(keyword)))
    In_inc;
  fire_heap ls.dec_bounds.(keyword)
    (float_of_int (-Adjustment_list.adjustment ls.dec.(keyword)))
    In_dec

(* ------------------------------------------------------------------ *)
(* Construction *)

let check_states states =
  let n = Array.length states in
  if n = 0 then invalid_arg "Roi_fleet: no advertisers";
  let nk = Roi_state.num_keywords states.(0) in
  Array.iter
    (fun st ->
      if Roi_state.num_keywords st <> nk then
        invalid_arg "Roi_fleet: keyword-count mismatch across advertisers")
    states;
  nk

let naive states =
  let nk = check_states states in
  let index =
    Bid_index.create ~num_keywords:nk ~n:(Array.length states)
      ~bid:(fun ~keyword ~adv -> Roi_state.bid states.(adv) ~keyword)
  in
  { states; nk; fleet_n = Array.length states; strategy = Naive index;
    f_epochs = Array.make nk 0 }

let keyword_name kw = Printf.sprintf "kw%d" kw

let sql states =
  let nk = check_states states in
  let programs =
    Array.map
      (fun st ->
        if Roi_state.budget st <> None then
          invalid_arg "Roi_fleet.sql: budgets are not expressible in Sql_program";
        let keywords =
          List.init nk (fun kw ->
              {
                Sql_program.text = keyword_name kw;
                formula = "click";
                value = Roi_state.value st ~keyword:kw;
                maxbid = Roi_state.maxbid st ~keyword:kw;
                initial_bid = Roi_state.bid st ~keyword:kw;
              })
        in
        Sql_program.create_simple ~keywords
          ~target_rate:(Roi_state.target_rate st))
      states
  in
  { states; nk; fleet_n = Array.length states; strategy = Sql { programs };
    f_epochs = Array.make nk 0 }

(* Row layout: 0 maxbid, 1 roi, 2 bid, 3 relevance, 4 value, 5 gained,
   6 spent (the Fig. 4 Keywords columns that vary per keyword). *)
let tabular states =
  let module V = Essa_relalg.Value in
  let nk = check_states states in
  let rows =
    Array.map
      (fun st ->
        Array.init nk (fun keyword ->
            [|
              V.Int (Roi_state.maxbid st ~keyword);
              V.Float 0.0;
              V.Int (Roi_state.bid st ~keyword);
              V.Float 0.0;
              V.Int (Roi_state.value st ~keyword);
              V.Int 0;
              V.Int 0;
            |]))
      states
  in
  let out_bids = Array.make (Array.length states) V.Null in
  let t_index =
    Bid_index.create ~num_keywords:nk ~n:(Array.length states)
      ~bid:(fun ~keyword ~adv -> V.to_int rows.(adv).(keyword).(2))
  in
  { states; nk; fleet_n = Array.length states;
    strategy = Tabular { rows; out_bids; t_index };
    f_epochs = Array.make nk 0 }

let tabular_on_auction ts states ~time ~keyword =
  let module V = Essa_relalg.Value in
  let nk = Array.length ts.rows.(0) in
  let time_v = V.Int time in
  Array.iteri
    (fun adv program_rows ->
      let st = states.(adv) in
      (* Provider-side relevance refresh for this query. *)
      for kw' = 0 to nk - 1 do
        program_rows.(kw').(3) <- V.Float (if kw' = keyword then 1.0 else 0.0)
      done;
      if Roi_state.exhausted st then ()
      else begin
      (* Spend-rate condition, evaluated through the value layer with the
         same float expression as Roi_state.classify. *)
      let spent_v = V.Int (Roi_state.amt_spent st) in
      let budget_v =
        V.mul (V.Float (Roi_state.target_rate st)) time_v
      in
      let before = V.to_int program_rows.(keyword).(2) in
      let adjust delta guard =
        for kw' = 0 to nk - 1 do
          let row = program_rows.(kw') in
          if V.to_bool (V.gt row.(3) (V.Float 0.0)) && guard row then
            row.(2) <- V.add row.(2) (V.Int delta)
        done
      in
      if V.to_bool (V.lt spent_v budget_v) then
        adjust 1 (fun row -> V.to_bool (V.lt row.(2) row.(0)))
      else if V.to_bool (V.gt spent_v budget_v) then
        adjust (-1) (fun row -> V.to_bool (V.gt row.(2) (V.Int 0)));
      (* Only the relevant (auctioned) keyword's bid can have moved. *)
      let after = V.to_int program_rows.(keyword).(2) in
      if after <> before then
        Bid_index.note ts.t_index ~keyword ~adv ~bid:after;
      (* Bids-table refresh: SUM(bid) over sufficiently relevant rows. *)
      let total = ref (V.Int 0) in
      for kw' = 0 to nk - 1 do
        let row = program_rows.(kw') in
        if V.to_bool (V.gt row.(3) (V.Float 0.7)) then
          total := V.add !total row.(2)
      done;
      ts.out_bids.(adv) <- !total
      end)
    ts.rows

let logical_state_of states ~nk =
  let n = Array.length states in
  let ls =
    {
      inc = Array.init nk (fun _ -> Adjustment_list.create ());
      dec = Array.init nk (fun _ -> Adjustment_list.create ());
      const_ = Array.init nk (fun _ -> Adjustment_list.create ());
      l_epoch = Array.make nk 0;
      tag = Array.make_matrix nk n In_const;
      cell_version = Array.make_matrix nk n 0;
      inc_bounds = Array.init nk (fun _ -> Essa_util.Min_heap.create ());
      dec_bounds = Array.init nk (fun _ -> Essa_util.Min_heap.create ());
      time_triggers = Essa_util.Min_heap.create ();
      adv_version = Array.make n 0;
      stored = Array.make_matrix nk n 0;
    }
  in
  for keyword = 0 to nk - 1 do
    let seated = ref [] in
    for adv = 0 to n - 1 do
      (* Fresh states have spent nothing, so they are underspending at
         every time until their first win; placement at time 1 is safe. *)
      let list, effective =
        seat ls states ~adv ~keyword ~time:1
          ~effective:(Roi_state.bid states.(adv) ~keyword)
          ~amt:(Roi_state.amt_spent states.(adv))
      in
      seated := (adv, list, effective) :: !seated
    done;
    insert_seated ls ~keyword !seated
  done;
  ls

let logical states =
  let nk = check_states states in
  let n = Array.length states in
  let ls = logical_state_of states ~nk in
  for adv = 0 to n - 1 do
    install_time_trigger ls states ~adv ~time:1
  done;
  { states; nk; fleet_n = Array.length states; strategy = Logical ls;
    f_epochs = Array.make nk 0 }

let logical_p states =
  let nk = check_states states in
  let n = Array.length states in
  (* Same initial placement as [logical] (fresh states are underspending,
     so no spend-rate triggers are pending yet), but the trigger heaps are
     per keyword and keyed on the keyword-local clock. *)
  let lp =
    {
      lp_base = logical_state_of states ~nk;
      lp_store = State_store.create states ~num_keywords:nk;
      lp_time_triggers = Array.init nk (fun _ -> Essa_util.Min_heap.create ());
      lp_version = Array.make_matrix nk n 0;
      lp_seen = Array.make_matrix nk n 0;
    }
  in
  { states; nk; fleet_n = Array.length states; strategy = Logical_p lp;
    f_epochs = Array.make nk 0 }

let flat_p store =
  if not (State_store.is_flat store) then
    invalid_arg "Roi_fleet.flat_p: store is not flat";
  {
    states = [||];
    nk = State_store.num_keywords store;
    fleet_n = State_store.flat_n store;
    strategy = Flat_p store;
    f_epochs = Array.make (State_store.num_keywords store) 0;
  }

(* ------------------------------------------------------------------ *)
(* Shared interface *)

let check_kw t keyword =
  if keyword < 0 || keyword >= t.nk then
    invalid_arg (Printf.sprintf "Roi_fleet: keyword %d out of range" keyword)

let on_auction t ~time ~keyword =
  check_kw t keyword;
  match t.strategy with
  | Naive index ->
      Array.iteri
        (fun adv st ->
          Roi_state.on_auction st ~time ~keyword;
          (* note early-exits against its latest-bid mirror, so only the
             post-adjustment read is needed. *)
          Bid_index.note index ~keyword ~adv ~bid:(Roi_state.bid st ~keyword))
        t.states
  | Tabular ts -> tabular_on_auction ts t.states ~time ~keyword
  | Sql { programs } ->
      (* Interpreted programs mutate private tables we don't diff:
         conservatively mark every auctioned keyword dirty. *)
      t.f_epochs.(keyword) <- t.f_epochs.(keyword) + 1;
      let name = keyword_name keyword in
      Array.iter
        (fun program ->
          Sql_program.run_auction program ~time
            ~relevance:(fun kw -> if kw = name then 1.0 else 0.0))
        programs
  | Logical ls ->
      fire_time_triggers ls t.states ~time;
      (* A bulk adjustment moves every member's effective bid; an empty
         list's adjustment is unobservable, so don't count it. *)
      if Adjustment_list.size ls.inc.(keyword) > 0 then
        t.f_epochs.(keyword) <- t.f_epochs.(keyword) + 1;
      Adjustment_list.bulk_adjust ls.inc.(keyword) 1;
      if Adjustment_list.size ls.dec.(keyword) > 0 then
        t.f_epochs.(keyword) <- t.f_epochs.(keyword) + 1;
      Adjustment_list.bulk_adjust ls.dec.(keyword) (-1);
      fire_bound_triggers ls t.states ~time ~keyword
  | Logical_p _ | Flat_p _ ->
      invalid_arg "Roi_fleet.on_auction: partitioned fleet (use begin_auction_p)"

let bid t ~adv ~keyword =
  check_kw t keyword;
  match t.strategy with
  | Naive _ -> Roi_state.bid t.states.(adv) ~keyword
  | Flat_p store -> State_store.flat_bid store ~keyword ~adv
  | Tabular ts -> Essa_relalg.Value.to_int ts.rows.(adv).(keyword).(2)
  | Sql { programs } -> Sql_program.bid_on programs.(adv) ~keyword:(keyword_name keyword)
  | Logical ls -> effective_bid ls ~adv ~keyword
  | Logical_p lp -> effective_bid lp.lp_base ~adv ~keyword

let sorted_bid_entries entries =
  Array.sort
    (fun (ia, ba) (ib, bb) ->
      let c = Int.compare bb ba in
      if c <> 0 then c else Int.compare ia ib)
    entries;
  Array.to_seq entries

(* Debug mode: the incremental index must agree with a from-scratch sort
   of the ground-truth bids (catching both relocation bugs and forgotten
   [note] calls on some mutation path). *)
let assert_index_matches_ground_truth seq entries =
  assert (List.of_seq seq = List.of_seq (sorted_bid_entries entries))

(* Specialized allocation-light 3-way merge: this sequence feeds the
   threshold algorithm's sorted access in the auction hot path.
   Order: higher bid first, ties to the smaller advertiser id —
   matching the naive sort exactly. *)
let logical_bids_desc ls ~keyword =
  let earlier (ia, ba) (ib, bb) = ba > bb || (ba = bb && ia < ib) in
  (* A drained stream's head is a sentinel no real entry loses to
     (bids are non-negative). *)
  let sentinel = (max_int, min_int) in
  let head = function Seq.Cons (x, _) -> x | Seq.Nil -> sentinel in
  let rec node h1 h2 h3 =
    match (h1, h2, h3) with
    | Seq.Nil, Seq.Nil, Seq.Nil -> Seq.Nil
    | _ ->
        let x1 = head h1 and x2 = head h2 and x3 = head h3 in
        let pick12 = if earlier x2 x1 then `Second else `First in
        let pick =
          match pick12 with
          | `First -> if earlier x3 x1 then `Third else `First
          | `Second -> if earlier x3 x2 then `Third else `Second
        in
        (match (pick, h1, h2, h3) with
        | `First, Seq.Cons (x, rest), _, _ ->
            Seq.Cons (x, fun () -> node (rest ()) h2 h3)
        | `Second, _, Seq.Cons (x, rest), _ ->
            Seq.Cons (x, fun () -> node h1 (rest ()) h3)
        | `Third, _, _, Seq.Cons (x, rest) ->
            Seq.Cons (x, fun () -> node h1 h2 (rest ()))
        | _ -> assert false)
  in
  let s1 = Adjustment_list.to_seq_desc ls.inc.(keyword) in
  let s2 = Adjustment_list.to_seq_desc ls.dec.(keyword) in
  let s3 = Adjustment_list.to_seq_desc ls.const_.(keyword) in
  fun () -> node (s1 ()) (s2 ()) (s3 ())

let bids_desc t ~keyword =
  check_kw t keyword;
  match t.strategy with
  | Naive index ->
      let seq = Bid_index.to_seq_desc index ~keyword in
      if !Bid_index.debug_checks then
        assert_index_matches_ground_truth seq
          (Array.mapi (fun adv st -> (adv, Roi_state.bid st ~keyword)) t.states);
      seq
  | Tabular ts ->
      let seq = Bid_index.to_seq_desc ts.t_index ~keyword in
      if !Bid_index.debug_checks then
        assert_index_matches_ground_truth seq
          (Array.mapi
             (fun adv rows -> (adv, Essa_relalg.Value.to_int rows.(keyword).(2)))
             ts.rows);
      seq
  | Sql { programs } ->
      sorted_bid_entries
        (Array.mapi
           (fun adv program ->
             (adv, Sql_program.bid_on program ~keyword:(keyword_name keyword)))
           programs)
  | Logical ls -> logical_bids_desc ls ~keyword
  | Logical_p lp -> logical_bids_desc lp.lp_base ~keyword
  | Flat_p _ ->
      invalid_arg
        "Roi_fleet.bids_desc: flat fleet (read partitions via State_store)"

type sorted_view = {
  sv_ids : int array;
  sv_bids : int array;
  sv_len : int;
  sv_adjust : int;
}

let index_views index ~n ~keyword =
  let ids, bids = Bid_index.sorted_arrays index ~keyword in
  [| { sv_ids = ids; sv_bids = bids; sv_len = n; sv_adjust = 0 } |]

let logical_views ls ~keyword =
  let view l =
    let ids, stored, len = Adjustment_list.sorted_arrays l in
    {
      sv_ids = ids;
      sv_bids = stored;
      sv_len = len;
      sv_adjust = Adjustment_list.adjustment l;
    }
  in
  [| view ls.inc.(keyword); view ls.dec.(keyword); view ls.const_.(keyword) |]

let sorted_views t ~keyword =
  check_kw t keyword;
  match t.strategy with
  | Naive index -> index_views index ~n:(n t) ~keyword
  | Tabular ts -> index_views ts.t_index ~n:(n t) ~keyword
  | Logical ls -> logical_views ls ~keyword
  | Logical_p lp -> logical_views lp.lp_base ~keyword
  | Flat_p _ ->
      invalid_arg
        "Roi_fleet.sorted_views: flat fleet (read partitions via State_store)"
  | Sql { programs } ->
      (* Cold strategy: materialize by sorting, as [bids_desc] does. *)
      let entries =
        Array.mapi
          (fun adv program ->
            (adv, Sql_program.bid_on program ~keyword:(keyword_name keyword)))
          programs
      in
      let seq = sorted_bid_entries entries in
      let n = Array.length entries in
      let ids = Array.make n 0 and bids = Array.make n 0 in
      Seq.iteri
        (fun i (adv, b) ->
          ids.(i) <- adv;
          bids.(i) <- b)
        seq;
      [| { sv_ids = ids; sv_bids = bids; sv_len = n; sv_adjust = 0 } |]

let record_win t ~time ~adv ~keyword ~price ~clicked =
  check_kw t keyword;
  (match t.strategy with
  | Logical_p _ | Flat_p _ ->
      (* Guard before any state mutation below. *)
      invalid_arg "Roi_fleet.record_win: partitioned fleet (use record_win_p)"
  | Naive _ | Tabular _ | Logical _ | Sql _ -> ());
  let was_exhausted = Roi_state.exhausted t.states.(adv) in
  Roi_state.record_win t.states.(adv) ~keyword ~price ~clicked;
  let newly_exhausted =
    (not was_exhausted) && Roi_state.exhausted t.states.(adv)
  in
  match t.strategy with
  | Naive index ->
      (* Budget exhaustion is the one win-path event that moves bids:
         Roi_state.record_win just zeroed every keyword. *)
      if newly_exhausted then Bid_index.note_all index ~adv ~bid:0
  | Sql { programs } ->
      Sql_program.record_win programs.(adv) ~keyword:(keyword_name keyword)
        ~price ~clicked
  | Tabular ts ->
      if clicked then begin
        let module V = Essa_relalg.Value in
        let row = ts.rows.(adv).(keyword) in
        row.(5) <- V.add row.(5) row.(4);
        row.(6) <- V.add row.(6) (V.Int price);
        let spent = V.to_int row.(6) and gained = V.to_int row.(5) in
        row.(1) <-
          V.Float
            (if spent > 0 then float_of_int gained /. float_of_int spent
             else if gained > 0 then infinity
             else 0.0);
        if Roi_state.exhausted t.states.(adv) then begin
          Array.iter (fun r -> r.(2) <- V.Int 0) ts.rows.(adv);
          Bid_index.note_all ts.t_index ~adv ~bid:0
        end
      end
  | Logical ls ->
      if clicked && price > 0 then begin
        (* The spend trajectory changed: retire pending spend-rate
           triggers, re-seat the program everywhere, re-arm. *)
        ls.adv_version.(adv) <- ls.adv_version.(adv) + 1;
        reclassify_all ls t.states ~adv ~time;
        install_time_trigger ls t.states ~adv ~time
      end
  | Logical_p _ | Flat_p _ ->
      invalid_arg "Roi_fleet.record_win: partitioned fleet (use record_win_p)"

let snapshot_bids t ~keyword =
  Array.init (n t) (fun adv -> bid t ~adv ~keyword)

(* ------------------------------------------------------------------ *)
(* Partitioned (per-keyword) interface *)

let partitioned t =
  match t.strategy with Logical_p _ | Flat_p _ -> true | _ -> false

let store_of t =
  match t.strategy with
  | Logical_p lp -> lp.lp_store
  | Flat_p store -> store
  | _ -> invalid_arg "Roi_fleet: not a partitioned fleet"

(* The keyword's dirty epoch: the sum of every monotone change counter
   that can observe a mutation of this keyword's evaluation inputs.  Each
   addend only ever grows, so the sum is monotone and changes whenever
   any source does; equal reads bracket a window in which [sorted_views]
   / the flat partition view were bit-identical.  Used by the engine's
   per-keyword evaluation cache as its sole validity test. *)
let epoch_of t ~keyword =
  check_kw t keyword;
  t.f_epochs.(keyword)
  +
  match t.strategy with
  | Naive index -> Bid_index.version index ~keyword
  | Tabular ts -> Bid_index.version ts.t_index ~keyword
  | Logical ls -> ls.l_epoch.(keyword)
  | Sql _ -> 0 (* on_auction bumps the overlay every time: never cached *)
  | Logical_p lp -> lp.lp_base.l_epoch.(keyword)
  | Flat_p store -> State_store.epoch_of store ~keyword

let keyword_time t ~keyword =
  check_kw t keyword;
  State_store.time (store_of t) ~keyword

let pending_time_triggers t ~keyword =
  check_kw t keyword;
  match t.strategy with
  | Logical_p lp -> Essa_util.Min_heap.size lp.lp_time_triggers.(keyword)
  | _ -> invalid_arg "Roi_fleet.pending_time_triggers: not a logical_p fleet"

let tick_p t ~keyword =
  check_kw t keyword;
  State_store.tick (store_of t) ~keyword

(* A keyword-local re-seat + trigger re-arm for one advertiser, driven by
   a snapshot spend reading.  At most one entry per advertiser is
   current, so a heap past 2n entries drops its stale ones at once. *)
let lp_reseat lp states ~adv ~keyword ~time ~amt =
  reseat lp.lp_base states ~adv ~keyword ~time ~amt;
  match critical_time states.(adv) ~amt ~time with
  | None -> ()
  | Some when_ ->
      let heap = lp.lp_time_triggers.(keyword) in
      let version = lp.lp_version.(keyword) in
      Essa_util.Min_heap.push heap ~priority:(float_of_int when_)
        (adv, version.(adv));
      if Essa_util.Min_heap.size heap > 2 * Array.length version then
        Essa_util.Min_heap.retain heap (fun (a, v) -> v = version.(a))

let begin_auction_p t ~keyword ?snapshot () =
  check_kw t keyword;
  match t.strategy with
  | Flat_p store ->
      State_store.flat_begin_auction store ~keyword ?override:snapshot ()
  | Logical_p lp ->
      let time = State_store.tick lp.lp_store ~keyword in
      let snap = State_store.snapshot lp.lp_store ~keyword ?override:snapshot () in
      let seen = lp.lp_seen.(keyword) in
      (* Apply the deferred cross-keyword effects locally: any advertiser
         whose spend moved since this keyword last classified it is
         re-seated here, against the snapshot. *)
      Array.iteri
        (fun adv amt ->
          if amt <> seen.(adv) then begin
            seen.(adv) <- amt;
            lp.lp_version.(keyword).(adv) <- lp.lp_version.(keyword).(adv) + 1;
            lp_reseat lp t.states ~adv ~keyword ~time ~amt
          end)
        snap;
      (* Fire this keyword's due spend-rate triggers on its local clock. *)
      List.iter
        (fun (_, (adv, version)) ->
          if version = lp.lp_version.(keyword).(adv) then
            lp_reseat lp t.states ~adv ~keyword ~time ~amt:seen.(adv))
        (Essa_util.Min_heap.pop_le lp.lp_time_triggers.(keyword)
           (float_of_int time));
      if Adjustment_list.size lp.lp_base.inc.(keyword) > 0 then
        t.f_epochs.(keyword) <- t.f_epochs.(keyword) + 1;
      Adjustment_list.bulk_adjust lp.lp_base.inc.(keyword) 1;
      if Adjustment_list.size lp.lp_base.dec.(keyword) > 0 then
        t.f_epochs.(keyword) <- t.f_epochs.(keyword) + 1;
      Adjustment_list.bulk_adjust lp.lp_base.dec.(keyword) (-1);
      fire_bound_triggers lp.lp_base t.states ~time ~keyword
        ~amt_of:(fun adv -> seen.(adv));
      (time, snap)
  | _ -> invalid_arg "Roi_fleet.begin_auction_p: not a partitioned fleet"

let record_win_p t ~adv ~keyword ~price ~clicked =
  check_kw t keyword;
  match t.strategy with
  | Flat_p store ->
      if clicked then State_store.flat_record_win store ~adv ~keyword ~price
  | Logical_p lp ->
      if clicked then begin
        ignore (State_store.charge lp.lp_store ~adv ~price);
        Roi_state.note_win_kw t.states.(adv) ~keyword ~price
      end
  | _ -> invalid_arg "Roi_fleet.record_win_p: not a partitioned fleet"
