type t = {
  seed : int;
  n : int;
  k : int;
  num_keywords : int;
  ctr : float array array;
  values : int array array;        (* n × num_keywords *)
  targets : float array;
  initial_bids : int array array;
  premiums : int array array;      (* n × num_keywords, Click∧Slot1 extras *)
  budgets : int option array;      (* per-advertiser daily spend caps *)
}

let slot_bounds ~k ~slot =
  (* Partition [0.1, 0.9] into k equal intervals; slot 1 gets the highest. *)
  let width = 0.8 /. float_of_int k in
  let hi = 0.9 -. (float_of_int (slot - 1) *. width) in
  (hi -. width, hi)

let section5 ?(k = 15) ?(num_keywords = 10) ?(max_value = 50)
    ?(brand_fraction = 0.0) ?(budgeted_fraction = 0.0) ~seed ~n () =
  if n < 1 then invalid_arg "Workload.section5: n < 1";
  if k < 1 then invalid_arg "Workload.section5: k < 1";
  if num_keywords < 1 then invalid_arg "Workload.section5: num_keywords < 1";
  let rng = Essa_util.Rng.create seed in
  let ctr =
    Array.init n (fun _ ->
        Array.init k (fun j ->
            let lo, hi = slot_bounds ~k ~slot:(j + 1) in
            Essa_util.Rng.float_in rng lo hi))
  in
  let values =
    Array.init n (fun _ ->
        let v =
          Array.init num_keywords (fun _ -> Essa_util.Rng.int rng (max_value + 1))
        in
        (* "subject to each bidder having at least one non-zero value" *)
        if Array.for_all (fun x -> x = 0) v then
          v.(Essa_util.Rng.int rng num_keywords) <- 1 + Essa_util.Rng.int rng max_value;
        v)
  in
  let targets =
    Array.init n (fun i ->
        let max_v = Array.fold_left max 1 values.(i) in
        Essa_util.Rng.float_in rng 1.0 (float_of_int max_v))
  in
  let initial_bids =
    Array.map (Array.map (fun v -> min v ((v + 1) / 2))) values
  in
  let premiums =
    Array.init n (fun i ->
        Array.init num_keywords (fun kw ->
            (* Brand-conscious advertisers pay extra for the top slot on
               their highest-value keyword (the boot seller of §II-C). *)
            if
              brand_fraction > 0.0
              && Essa_util.Rng.bernoulli rng brand_fraction
              && values.(i).(kw) = Array.fold_left max 0 values.(i)
            then 1 + Essa_util.Rng.int rng (max_value / 2)
            else 0))
  in
  let budgets =
    Array.init n (fun _ ->
        if budgeted_fraction > 0.0 && Essa_util.Rng.bernoulli rng budgeted_fraction
        then Some (50 + Essa_util.Rng.int rng 450)
        else None)
  in
  { seed; n; k; num_keywords; ctr; values; targets; initial_bids; premiums; budgets }

let n t = t.n
let k t = t.k
let num_keywords t = t.num_keywords
let ctr t = t.ctr
let slot_interval t ~slot = slot_bounds ~k:t.k ~slot

let fresh_states t =
  Array.init t.n (fun i ->
      Essa_strategy.Roi_state.create ~values:t.values.(i)
        ~initial_bids:t.initial_bids.(i) ~premiums:t.premiums.(i)
        ?budget:t.budgets.(i) ~target_rate:t.targets.(i) ())

let make_engine ?metrics ?partitioned ?cache ?update_every ?(pricing = `Gsp)
    ?(reserve = 0) ?mechanism ?states t ~method_ =
  let states = match states with Some s -> s | None -> fresh_states t in
  Essa.Engine.create ?metrics ?partitioned ?cache ?update_every ~reserve
    ~pricing ?mechanism ~method_ ~ctr:t.ctr ~states
    ~user_seed:(t.seed lxor 0x5eed) ()

let query_stream t ~seed =
  let rng = Essa_util.Rng.create seed in
  Seq.forever (fun () -> Essa_util.Rng.int rng t.num_keywords)

let queries t ~seed ~count =
  if count < 0 then invalid_arg "Workload.queries: negative count";
  let rng = Essa_util.Rng.create seed in
  Array.init count (fun _ -> Essa_util.Rng.int rng t.num_keywords)

(* ------------------------------------------------------------------ *)
(* The production-shaped universe: K keywords under a Zipf(s) query
   distribution, N advertisers each bidding on a few keywords (sparse
   participation), optional bidder churn.  Built for the flat state store
   — nothing here materializes an n × K structure. *)

type universe = {
  u_seed : int;
  u_slots : int;
  u_keywords : int;
  u_n : int;
  u_zipf_s : float;
  u_max_value : int;
  u_ctr : float array array;  (* n × k *)
  u_targets : float array;    (* per advertiser *)
  u_budgets : int array;      (* per advertiser, -1 = unbudgeted *)
  (* Initial enrollment per keyword: (adv, value, maxbid, bid, premium),
     in enrollment order (slot order of a fresh store). *)
  u_participants : (int * int * int * int * int) array array;
  u_zipf_cum : float array;   (* cumulative (unnormalized) Zipf weights *)
}

let universe ?(slots = 15) ?(max_value = 50) ?(max_keywords_per_adv = 3)
    ?(brand_fraction = 0.0) ?(budgeted_fraction = 0.0) ~keywords ~n ~zipf_s
    ~seed () =
  if n < 1 then invalid_arg "Workload.universe: n < 1";
  if slots < 1 then invalid_arg "Workload.universe: slots < 1";
  if keywords < 1 then invalid_arg "Workload.universe: keywords < 1";
  if max_keywords_per_adv < 1 then
    invalid_arg "Workload.universe: max_keywords_per_adv < 1";
  if not (zipf_s >= 0.0) then
    invalid_arg "Workload.universe: zipf_s must be non-negative";
  if max_value < 1 then invalid_arg "Workload.universe: max_value < 1";
  let rng = Essa_util.Rng.create seed in
  let ctr =
    Array.init n (fun _ ->
        Array.init slots (fun j ->
            let lo, hi = slot_bounds ~k:slots ~slot:(j + 1) in
            Essa_util.Rng.float_in rng lo hi))
  in
  let parts = Array.make keywords [] in
  let targets = Array.make n 1.0 in
  let budgets = Array.make n (-1) in
  (* Per advertiser: enroll on 1..max_keywords_per_adv distinct keywords,
     uniform over the universe (the query-side skew comes from the Zipf
     stream, not from participation). *)
  let chosen = Array.make max_keywords_per_adv (-1) in
  for adv = 0 to n - 1 do
    let d = 1 + Essa_util.Rng.int rng max_keywords_per_adv in
    Array.fill chosen 0 max_keywords_per_adv (-1);
    let max_v = ref 1 in
    for c = 0 to d - 1 do
      let rec fresh_kw tries =
        let kw = Essa_util.Rng.int rng keywords in
        if tries > 0 && Array.exists (fun x -> x = kw) chosen then
          fresh_kw (tries - 1)
        else kw
      in
      let kw = fresh_kw 16 in
      if not (Array.exists (fun x -> x = kw) chosen) then begin
        chosen.(c) <- kw;
        let v = 1 + Essa_util.Rng.int rng max_value in
        if v > !max_v then max_v := v;
        let premium =
          if brand_fraction > 0.0 && Essa_util.Rng.bernoulli rng brand_fraction
          then 1 + Essa_util.Rng.int rng (max 1 (max_value / 2))
          else 0
        in
        parts.(kw) <-
          (adv, v, v, min v ((v + 1) / 2), premium) :: parts.(kw)
      end
    done;
    targets.(adv) <- Essa_util.Rng.float_in rng 1.0 (float_of_int !max_v);
    if
      budgeted_fraction > 0.0
      && Essa_util.Rng.bernoulli rng budgeted_fraction
    then budgets.(adv) <- 50 + Essa_util.Rng.int rng 450
  done;
  let participants = Array.map (fun l -> Array.of_list (List.rev l)) parts in
  let cum = Array.make keywords 0.0 in
  let acc = ref 0.0 in
  for r = 0 to keywords - 1 do
    acc := !acc +. (float_of_int (r + 1) ** -.zipf_s);
    cum.(r) <- !acc
  done;
  {
    u_seed = seed;
    u_slots = slots;
    u_keywords = keywords;
    u_n = n;
    u_zipf_s = zipf_s;
    u_max_value = max_value;
    u_ctr = ctr;
    u_targets = targets;
    u_budgets = budgets;
    u_participants = participants;
    u_zipf_cum = cum;
  }

let universe_n u = u.u_n
let universe_keywords u = u.u_keywords
let universe_slots u = u.u_slots
let universe_zipf_s u = u.u_zipf_s
let universe_ctr u = u.u_ctr

let churn_seed_of ~seed = seed lxor 0xC0FFEE

(* Deterministic churn: one RNG stream per keyword, split off the churn
   seed by keyword id and advanced once per keyword tick — so membership
   at a given keyword-local time is a pure function of (universe, rate,
   seed), and a rebuilt store replays the same arrivals/departures at the
   same local times (no churn logging needed).  Lanes own disjoint
   keywords, so the per-keyword streams are single-writer; the base RNG
   is only read through the pure [split].  The per-keyword streams live
   in the store itself ([State_store.flat_tick_rng]) so a durability
   snapshot captures their positions: re-attaching the hook to a
   restored store resumes the schedule mid-stream rather than replaying
   it from the start. *)
let install_churn u store ~rate ~seed =
  if not (rate >= 0.0 && rate <= 1.0) then
    invalid_arg "Workload.install_churn: rate outside [0,1]";
  if rate = 0.0 then ()
  else begin
    let module S = Essa_strategy.State_store in
    let base = Essa_util.Rng.create seed in
    S.set_on_tick store
      (Some
         (fun ~keyword ~time:_ ->
           let rng =
             S.flat_tick_rng store ~keyword ~init:(fun () ->
                 Essa_util.Rng.split base ~key:keyword)
           in
           if Essa_util.Rng.bernoulli rng rate then begin
             let stats = S.flat_stats store ~keyword in
             let depart =
               stats.S.fs_live > 1 && Essa_util.Rng.bool rng
             in
             if depart then begin
               (* Retire the live member at a random live position (the
                  slot order is deterministic given the operation
                  history). *)
               let target = Essa_util.Rng.int rng stats.S.fs_live in
               let fv = S.flat_view store ~keyword in
               let victim = ref (-1) in
               let seen = ref 0 in
               (try
                  for slot = 0 to fv.S.fv_len - 1 do
                    if fv.S.fv_members.(slot) >= 0 then begin
                      if !seen = target then begin
                        victim := fv.S.fv_members.(slot);
                        raise Exit
                      end;
                      incr seen
                    end
                  done
                with Exit -> ());
               if !victim >= 0 then S.flat_retire store ~keyword ~adv:!victim
             end
             else begin
               (* Arrival: a uniform advertiser not already on this
                  keyword (bounded probes keep the draw count finite). *)
               let rec pick tries =
                 if tries = 0 then -1
                 else
                   let adv = Essa_util.Rng.int rng u.u_n in
                   if S.flat_member store ~keyword ~adv then pick (tries - 1)
                   else adv
               in
               let adv = pick 8 in
               if adv >= 0 then begin
                 let v = 1 + Essa_util.Rng.int rng u.u_max_value in
                 S.flat_enroll store ~keyword ~adv ~value:v ~maxbid:v
                   ~bid:(min v ((v + 1) / 2)) ~premium:0
               end
             end
           end))
  end

let universe_store ?(churn = 0.0) ?churn_seed u () =
  let module S = Essa_strategy.State_store in
  let store =
    S.create_flat ~num_keywords:u.u_keywords ~n:u.u_n ~budgets:u.u_budgets
      ~targets:u.u_targets ()
  in
  Array.iteri
    (fun keyword ps ->
      Array.iter
        (fun (adv, value, maxbid, bid, premium) ->
          S.flat_enroll store ~keyword ~adv ~value ~maxbid ~bid ~premium)
        ps)
    u.u_participants;
  let seed =
    match churn_seed with Some s -> s | None -> churn_seed_of ~seed:u.u_seed
  in
  install_churn u store ~rate:churn ~seed;
  store

let universe_attach_churn ?churn_seed u store ~churn =
  let seed =
    match churn_seed with Some s -> s | None -> churn_seed_of ~seed:u.u_seed
  in
  install_churn u store ~rate:churn ~seed

let make_flat_engine ?metrics ?cache ?update_every ?(pricing = `Gsp)
    ?(reserve = 0) ?mechanism u ~store =
  Essa.Engine.create_flat ?metrics ?cache ?update_every ~reserve ~pricing
    ?mechanism ~ctr:u.u_ctr ~store
    ~user_seed:(u.u_seed lxor 0x5eed) ()

(* Zipf(s) keyword sampling: binary search of the cumulative weights. *)
let zipf_sample u rng =
  let cum = u.u_zipf_cum in
  let total = cum.(Array.length cum - 1) in
  let x = Essa_util.Rng.float_in rng 0.0 total in
  let lo = ref 0 and hi = ref (Array.length cum - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cum.(mid) <= x then lo := mid + 1 else hi := mid
  done;
  !lo

let universe_query_stream u ~seed =
  let rng = Essa_util.Rng.create seed in
  Seq.forever (fun () -> zipf_sample u rng)

let universe_queries u ~seed ~count =
  if count < 0 then invalid_arg "Workload.universe_queries: negative count";
  let rng = Essa_util.Rng.create seed in
  Array.init count (fun _ -> zipf_sample u rng)
