module Sstore = Essa_strategy.State_store

type method_ = [ `Lp | `Lp_dense | `H | `Rh | `Rhtalu ]

type degrade = Cheap_allocation | Unfilled

type summary = {
  auction_time : int;
  keyword : int;
  assignment : Essa_matching.Assignment.t;
  prices : int array;
  clicks : bool array;
  revenue : int;
  degraded : degrade option;
  spend_snapshot : int array option;
      (* Partitioned full/cheap path: the per-advertiser spend snapshot
         every decision in this auction read — the witness that makes the
         summary replayable bit-for-bit.  None on the serial path and on
         Unfilled ticks (which read no spend). *)
}

type pricing = [ `Gsp | `Vcg | `Pay_as_bid ]

type mechanism =
  [ `Classic | `Stable | `Reserve of [ `Fixed of int array | `Monopoly ] ]

(* Metric handles resolved once at engine construction; the per-auction
   record path touches only the handles (allocation-free), never the
   registry.  Engines given the same registry share these metrics, so a
   sweep's auctions aggregate into one set of histograms. *)
type engine_metrics = {
  registry : Essa_obs.Registry.t;
  h_program_eval : Essa_obs.Histogram.t;
  h_winner_determination : Essa_obs.Histogram.t;
  h_pricing : Essa_obs.Histogram.t;
  h_user : Essa_obs.Histogram.t;
  h_total : Essa_obs.Histogram.t;
  c_auctions : Essa_obs.Counter.t;
  c_revenue : Essa_obs.Counter.t;
  c_clicks : Essa_obs.Counter.t;
  c_slots_filled : Essa_obs.Counter.t;
  c_ta_sorted : Essa_obs.Counter.t;
  c_ta_random : Essa_obs.Counter.t;
  c_ta_seen : Essa_obs.Counter.t;
  c_reduced_candidates : Essa_obs.Counter.t;
  c_degraded_cheap : Essa_obs.Counter.t;
  c_degraded_unfilled : Essa_obs.Counter.t;
  c_cache_hits : Essa_obs.Counter.t;
  c_cache_misses : Essa_obs.Counter.t;
  c_cache_invalidations : Essa_obs.Counter.t;
}

let engine_metrics registry =
  let h name ~help = Essa_obs.Registry.histogram ~help registry name in
  let c name ~help = Essa_obs.Registry.counter ~help registry name in
  (* Bound one by one (not inside the record literal, whose fields OCaml
     evaluates right-to-left) so registration — and hence export — order
     is the declaration order below. *)
  let h_program_eval =
    h "essa.auction.phase.program_eval_ns"
      ~help:"Per-auction bidding-program evaluation latency (ns)"
  in
  let h_winner_determination =
    h "essa.auction.phase.winner_determination_ns"
      ~help:"Per-auction winner-determination latency (ns)"
  in
  let h_pricing =
    h "essa.auction.phase.pricing_ns" ~help:"Per-auction pricing latency (ns)"
  in
  let h_user =
    h "essa.auction.phase.user_ns"
      ~help:"Per-auction click sampling + billing + notification latency (ns)"
  in
  let h_total =
    h "essa.auction.total_ns" ~help:"End-to-end per-auction latency (ns)"
  in
  let c_auctions = c "essa.auctions" ~help:"Auctions run" in
  let c_revenue = c "essa.revenue_cents" ~help:"Cents billed across all auctions" in
  let c_clicks = c "essa.clicks" ~help:"User clicks sampled" in
  let c_slots_filled = c "essa.slots_filled" ~help:"Slots assigned a winner" in
  let c_ta_sorted =
    c "essa.ta.sorted_accesses" ~help:"Threshold-algorithm sorted accesses"
  in
  let c_ta_random =
    c "essa.ta.random_accesses" ~help:"Threshold-algorithm random accesses"
  in
  let c_ta_seen =
    c "essa.ta.seen_objects" ~help:"Threshold-algorithm objects fully resolved"
  in
  let c_reduced_candidates =
    c "essa.reduction.candidates"
      ~help:"Advertisers surviving the per-slot top-(k+1) graph reduction"
  in
  let c_degraded_cheap =
    c "essa.auction.degraded_cheap"
      ~help:"Auctions whose deadline tripped after program evaluation: full \
             winner determination replaced by the single-pass top-k fallback"
  in
  let c_degraded_unfilled =
    c "essa.auction.degraded_unfilled"
      ~help:"Auctions already past their deadline at start: served unfilled, \
             bid-program updates shed"
  in
  let c_cache_hits =
    c "essa.engine.cache_hits"
      ~help:"Keyword evaluation-cache hits: winner determination and pricing \
             reused from the previous auction at the same dirty epoch"
  in
  let c_cache_misses =
    c "essa.engine.cache_misses"
      ~help:"Keyword evaluation-cache misses (cold keyword or stale epoch)"
  in
  let c_cache_invalidations =
    c "essa.engine.cache_invalidations"
      ~help:"Cache misses that found a stale entry: the keyword's dirty epoch \
             moved since the entry was stored"
  in
  {
    registry;
    h_program_eval;
    h_winner_determination;
    h_pricing;
    h_user;
    h_total;
    c_auctions;
    c_revenue;
    c_clicks;
    c_slots_filled;
    c_ta_sorted;
    c_ta_random;
    c_ta_seen;
    c_reduced_candidates;
    c_degraded_cheap;
    c_degraded_unfilled;
    c_cache_hits;
    c_cache_misses;
    c_cache_invalidations;
  }

(* One completed keyword evaluation, reusable while the keyword's dirty
   epoch ({!Essa_strategy.Roi_fleet.epoch_of}) is unchanged: between two
   equal epoch reads the sorted views / partition view are bit-identical,
   so winner determination and pricing would recompute exactly this
   assignment and these prices.  This is the fixed point of TA resume:
   any bid mutation rebuilds the sorted arrays and invalidates partial
   cursors, so the reusable resume state across same-keyword auctions is
   the completed frontier — assignment, prices, and the cold run's access
   statistics (re-reported on every hit, keeping cached and uncached runs
   bit-identical including the essa.ta.* counters).  Mechanism-agnostic:
   the {!Mechanism.S} purity contract is exactly what makes an entry
   valid for any implementation. *)
type cache_entry = {
  ce_epoch : int;
  ce_assignment : Essa_matching.Assignment.t;
  ce_prices : int array;
  ce_ta_sorted : int;
  ce_ta_random : int;
  ce_ta_seen : int;
  ce_reduced : int;
}

(* Per-keyword execution state.  On a partitioned engine each keyword has
   an independent click-sampling stream (split off the user seed by
   keyword), private scratch and a private total-latency histogram
   (histograms are not thread-safe; drained by [sync_partition_metrics]);
   exactly one lane owns each keyword, so no field needs synchronization.
   A serial engine's partitions share the engine's click RNG, scratch and
   [essa.auction.total_ns] histogram, so only the cache entry, the
   decimation counter and the revenue tally are per keyword. *)
type epartition = {
  p_rng : Essa_util.Rng.t;
  mutable p_scratch : Mechanism.scratch;  (* replaced when a flat partition grows *)
  p_h_total : Essa_obs.Histogram.t;
  mutable p_revenue : int;
  (* The keyword's evaluation cache (partitions are per keyword, so one
     entry each).  Keyword-local, hence lane-private: no synchronization. *)
  mutable p_cache : cache_entry option;
  (* Auctions run on this partition — the bid-update decimation counter:
     the begin pass runs when [p_au_count mod update_every = 0], otherwise
     the auction only advances the clock. *)
  mutable p_au_count : int;
  (* Durability only: the open decimation window's (assignment, prices),
     restored from a snapshot.  A dense engine rebuilt from bare states
     re-classifies the adjustment lists with snapshot-time spends, but
     the live engine's window serves the allocation its last begin pass
     computed — so the snapshot carries that allocation and decimated
     auctions serve it until the window closes (the next update pass
     clears it).  Always [None] on an uninterrupted engine. *)
  mutable p_frozen : (Essa_matching.Assignment.t * int array) option;
}

type t = {
  n : int;
  k : int;
  nk : int;
  ctr : float array array;
  fleet : Essa_strategy.Roi_fleet.t;
  (* The auction mechanism — who wins which slot at what price — and the
     static context its hooks read.  Everything else in this module is
     mechanism-agnostic orchestration: click sampling, billing, the
     evaluation cache, decimation, deadlines, durability. *)
  mech : (module Mechanism.S);
  ctx : Mechanism.ctx;
  user_rng : Essa_util.Rng.t;
  (* Serial engines: the scratch every keyword's partition shares. *)
  scratch : Mechanism.scratch;
  is_partitioned : bool;
  (* Flat mode: the fleet is a {!Essa_strategy.Roi_fleet.flat_p} over a
     flat {!Sstore}; mechanisms take their slot-indexed paths and all
     n-sized / nk×n side structures in the ctx are empty. *)
  is_flat : bool;
  (* Per-keyword execution state, lazy: only auctioned keywords allocate. *)
  partitions : epartition option array;
  (* Cross-keyword tallies; a serial engine's clock is its auction count. *)
  a_revenue : int Atomic.t;
  a_auctions : int Atomic.t;
  (* Monotonic ns clock consulted by the deadline checks only (latency
     metrics always read the real clock).  Injectable so deadline tests
     can script exactly which check trips, without sleeps. *)
  clock : unit -> int64;
  (* Cross-auction evaluation cache, keyed on the fleet's per-keyword
     dirty epoch; the entries live in the partitions.  Degraded tiers
     bypass the cache entirely. *)
  cache_on : bool;
  (* Bid-update decimation: programs update their bids on every
     [update_every]-th auction of a keyword; the auctions in between
     evaluate against unchanged bids (the production regime where queries
     arrive orders of magnitude faster than bid updates — the regime the
     evaluation cache exploits).  1 (the default) is today's
     update-per-auction semantics, bit for bit. *)
  update_every : int;
  (* Per-phase latency histograms and event counters; updated on every
     auction at negligible (allocation-free) cost. *)
  m : engine_metrics;
}

(* Resolve the mechanism selector to its first-class module.  [`Fixed]
   floors are validated here (both constructors funnel through). *)
let resolve_mechanism ~nk ~pricing (mechanism : mechanism) :
    (module Mechanism.S) =
  match mechanism with
  | `Classic -> Mech_classic.make pricing
  | `Stable -> Stable_match.mech
  | `Reserve rule ->
      (match rule with
      | `Fixed floors ->
          if Array.length floors <> nk then
            invalid_arg "Engine: reserve floor array length <> keyword count";
          Array.iter
            (fun f ->
              if f < 0 then invalid_arg "Engine: negative reserve floor")
            floors
      | `Monopoly -> ());
      Reserve.make ~pricing rule

(* Both constructors take an n × k click matrix: k > 0 slots, every row
   of length k, every entry a probability.  Returns k. *)
let check_ctr ~who ctr =
  let k = Array.length ctr.(0) in
  if k = 0 then invalid_arg (who ^ ": no slots");
  Array.iter
    (fun row ->
      if Array.length row <> k then invalid_arg (who ^ ": ragged ctr");
      Array.iter
        (fun p ->
          if not (p >= 0.0 && p <= 1.0) then
            invalid_arg (who ^ ": click probability outside [0,1]"))
        row)
    ctr;
  k

(* The engine record of both constructors, built after their checks;
   [ctx_of] completes the mechanism context once the metric handles
   exist. *)
let assemble ?metrics ~clock ~cache ~update_every ~mechanism ~pricing
    ~partitioned ~flat ~ctr ~fleet ~scratch ~user_seed ctx_of =
  let registry =
    match metrics with Some r -> r | None -> Essa_obs.Registry.create ()
  in
  let m = engine_metrics registry in
  let ctx : Mechanism.ctx = ctx_of m in
  let nk = Essa_strategy.Roi_fleet.num_keywords fleet in
  {
    n = ctx.x_n;
    k = ctx.x_k;
    nk;
    ctr;
    fleet;
    mech = resolve_mechanism ~nk ~pricing mechanism;
    ctx;
    user_rng = Essa_util.Rng.create user_seed;
    scratch;
    is_partitioned = partitioned;
    is_flat = flat;
    partitions = Array.make nk None;
    a_revenue = Atomic.make 0;
    a_auctions = Atomic.make 0;
    clock;
    cache_on = cache;
    update_every;
    m;
  }

let create ?metrics ?(clock = Essa_util.Timing.now_ns) ?(partitioned = false)
    ?(cache = true) ?(update_every = 1) ?(mechanism = `Classic) ~reserve
    ~pricing ~method_ ~ctr ~states ~user_seed () =
  if update_every < 1 then invalid_arg "Engine.create: update_every < 1";
  let n = Array.length ctr in
  if n = 0 then invalid_arg "Engine.create: no advertisers";
  let k = check_ctr ~who:"Engine.create" ctr in
  if Array.length states <> n then
    invalid_arg "Engine.create: states length <> ctr rows";
  (* Every state must agree on the keyword universe: [premiums] is sized
     from states.(0) while [t.nk] comes from the fleet, so a disagreeing
     state would read out of bounds inside [run_auction] instead of
     failing here. *)
  let nk = Essa_strategy.Roi_state.num_keywords states.(0) in
  Array.iteri
    (fun i s ->
      let nk_i = Essa_strategy.Roi_state.num_keywords s in
      if nk_i <> nk then
        invalid_arg
          (Printf.sprintf
             "Engine.create: state %d has %d keywords where state 0 has %d" i
             nk_i nk))
    states;
  let fleet =
    match (method_, partitioned) with
    | (`Lp | `Lp_dense | `H | `Rh), false -> Essa_strategy.Roi_fleet.tabular states
    | `Rhtalu, false -> Essa_strategy.Roi_fleet.logical states
    (* One partitioned fleet: the method picks the winner-determination
       kernel only. *)
    | (`Rh | `Rhtalu), true -> Essa_strategy.Roi_fleet.logical_p states
    | (`Lp | `Lp_dense | `H), true ->
        invalid_arg
          "Engine.create: partitioned mode supports `Rh and `Rhtalu only"
  in
  (* The TA's sorted-access lists: ids by value descending (ties to the
     smaller id, kept by the stable sort), and the values in that order. *)
  let sorted_desc vals =
    let ids = Array.init n Fun.id in
    Array.stable_sort (fun a b -> Float.compare vals.(b) vals.(a)) ids;
    (ids, Array.map (fun i -> vals.(i)) ids)
  in
  let ctr_cols = Array.init k (fun j -> Array.init n (fun i -> ctr.(i).(j))) in
  let ctr_ids, ctr_vals = Array.split (Array.map sorted_desc ctr_cols) in
  let premiums =
    Array.init nk (fun keyword ->
        Array.init n (fun i -> Essa_strategy.Roi_state.premium states.(i) ~keyword))
  in
  let prem_ids, prem_vals =
    Array.split
      (Array.map (fun p -> sorted_desc (Array.map float_of_int p)) premiums)
  in
  if reserve < 0 then invalid_arg "Engine.create: negative reserve";
  let scratch = Mechanism.make_scratch ~method_ ~n ~k in
  assemble ?metrics ~clock ~cache ~update_every ~mechanism ~pricing
    ~partitioned ~flat:false ~ctr ~fleet ~scratch ~user_seed (fun m ->
      {
        Mechanism.x_method = method_;
        x_n = n;
        x_k = k;
        x_reserve = reserve;
        x_ctr = ctr;
        x_ctr_ids = ctr_ids;
        x_ctr_vals = ctr_vals;
        x_ctr_cols = ctr_cols;
        x_premiums = premiums;
        x_prem_ids = prem_ids;
        x_prem_vals = prem_vals;
        x_fleet = fleet;
        x_c_ta_sorted = m.c_ta_sorted;
        x_c_ta_random = m.c_ta_random;
        x_c_ta_seen = m.c_ta_seen;
        x_c_reduced = m.c_reduced_candidates;
      })

let create_flat ?metrics ?(clock = Essa_util.Timing.now_ns) ?(cache = true)
    ?(update_every = 1) ?(mechanism = `Classic) ~reserve ~pricing ~ctr ~store
    ~user_seed () =
  if update_every < 1 then invalid_arg "Engine.create_flat: update_every < 1";
  if not (Sstore.is_flat store) then
    invalid_arg "Engine.create_flat: store is not flat";
  let n = Sstore.flat_n store in
  if Array.length ctr <> n then
    invalid_arg "Engine.create_flat: ctr rows <> advertisers";
  let k = check_ctr ~who:"Engine.create_flat" ctr in
  if reserve < 0 then invalid_arg "Engine.create_flat: negative reserve";
  (match pricing with
  | `Vcg ->
      invalid_arg "Engine.create_flat: VCG needs the dense pricing view"
  | `Gsp | `Pay_as_bid -> ());
  let fleet = Essa_strategy.Roi_fleet.flat_p store in
  assemble ?metrics ~clock ~cache ~update_every ~mechanism ~pricing
    ~partitioned:true ~flat:true ~ctr ~fleet
    ~scratch:(* unused: serial only *)
      (Mechanism.make_scratch ~method_:`Rh ~n:1 ~k)
    ~user_seed (fun m ->
      {
        Mechanism.x_method = `Rh;
        x_n = n;
        x_k = k;
        x_reserve = reserve;
        x_ctr = ctr;
        (* All n-sized / nk×n side structures stay empty: at 10⁵ keywords
           × 10⁵ advertisers they are exactly what the flat layout
           removes. *)
        x_ctr_ids = [||];
        x_ctr_vals = [||];
        x_ctr_cols = [||];
        x_premiums = [||];
        x_prem_ids = [||];
        x_prem_vals = [||];
        x_fleet = fleet;
        x_c_ta_sorted = m.c_ta_sorted;
        x_c_ta_random = m.c_ta_random;
        x_c_ta_seen = m.c_ta_seen;
        x_c_reduced = m.c_reduced_candidates;
      })

let cache_enabled t = t.cache_on

let n t = t.n
let k t = t.k
let num_keywords t = t.nk
let partitioned t = t.is_partitioned
let is_flat t = t.is_flat
let auctions_run t = Atomic.get t.a_auctions
let time = auctions_run
let total_revenue t = Atomic.get t.a_revenue
let fleet t = t.fleet
let metrics t = t.m.registry

let mechanism_name t =
  let (module M) = t.mech in
  M.name

let keyword_time t ~keyword =
  if not t.is_partitioned then
    invalid_arg "Engine.keyword_time: serial engine (one global clock)";
  Essa_strategy.Roi_fleet.keyword_time t.fleet ~keyword

(* A keyword's partition is made on its first auction, by the lane that
   owns the keyword; cells are disjoint across lanes, so no
   synchronization is needed.  A serial engine is never served, so one
   domain makes all of its partitions.  The keyed RNG split is pure (the
   base stream is never advanced), so the partition family is
   independent of first-touch order. *)
let partition_of t ~keyword =
  match t.partitions.(keyword) with
  | Some p -> p
  | None ->
      let rng, scratch, h_total =
        if not t.is_partitioned then (t.user_rng, t.scratch, t.m.h_total)
        else
          (* Flat scratch is slot-indexed: size it to the keyword
             partition's current capacity, not the fleet (it is re-made
             bigger if churn grows the partition). *)
          let scratch_n =
            if t.is_flat then
              Sstore.flat_capacity
                (Essa_strategy.Roi_fleet.store_of t.fleet)
                ~keyword
            else t.n
          in
          ( Essa_util.Rng.split t.user_rng ~key:keyword,
            Mechanism.make_scratch ~method_:t.ctx.x_method ~n:scratch_n
              ~k:t.k,
            Essa_obs.Histogram.create () )
      in
      let p =
        {
          p_rng = rng;
          p_scratch = scratch;
          p_h_total = h_total;
          p_revenue = 0;
          p_cache = None;
          p_au_count = 0;
          p_frozen = None;
        }
      in
      t.partitions.(keyword) <- Some p;
      p

let bid t ~adv ~keyword = Essa_strategy.Roi_fleet.bid t.fleet ~adv ~keyword

(* ------------------------------------------------------------------ *)
(* Evaluation-cache plumbing.  A probe compares the stored epoch with the
   keyword's current one (read *after* the begin pass, so every mutation
   that could change this auction's inputs has already been counted);
   hits skip winner determination and pricing entirely, misses run them
   and store the completed frontier.  Clicks, billing and win
   notifications always run per auction — a hit consumes exactly the RNG
   draws and applies exactly the state transitions of a cold run, which
   is what keeps cached and uncached timelines bit-identical. *)

let cache_probe t ~epoch entry =
  match entry with
  | Some ce when ce.ce_epoch = epoch ->
      Essa_obs.Counter.incr t.m.c_cache_hits;
      Some ce
  | Some _ ->
      Essa_obs.Counter.incr t.m.c_cache_misses;
      Essa_obs.Counter.incr t.m.c_cache_invalidations;
      None
  | None ->
      Essa_obs.Counter.incr t.m.c_cache_misses;
      None

(* Re-report the stored cold-run access statistics, so cached runs export
   the same essa.ta.* / reduction counters as uncached ones. *)
let cache_replay_counters t ce =
  Essa_obs.Counter.add t.m.c_ta_sorted ce.ce_ta_sorted;
  Essa_obs.Counter.add t.m.c_ta_random ce.ce_ta_random;
  Essa_obs.Counter.add t.m.c_ta_seen ce.ce_ta_seen;
  Essa_obs.Counter.add t.m.c_reduced_candidates ce.ce_reduced

(* Entries own copies of the result arrays (summaries escape to the
   caller), and hits hand out copies in turn. *)
let cache_entry_of ~epoch (s : Mechanism.scratch) ~assignment ~prices =
  {
    ce_epoch = epoch;
    ce_assignment = Array.copy assignment;
    ce_prices = Array.copy prices;
    ce_ta_sorted = s.Mechanism.wd_ta_sorted;
    ce_ta_random = s.Mechanism.wd_ta_random;
    ce_ta_seen = s.Mechanism.wd_ta_seen;
    ce_reduced = s.Mechanism.wd_reduced;
  }

(* A keyword tag with no effect on the auction: every partitioned auction
   takes its own spend snapshot in [begin_auction_p]. *)
type batch = int

let batch_start t ~keyword =
  if not t.is_partitioned then
    invalid_arg "Engine.batch_start: serial engine";
  if keyword < 0 || keyword >= t.nk then
    invalid_arg (Printf.sprintf "Engine.batch_start: keyword %d" keyword);
  keyword

let now () = Int64.to_int (Essa_util.Timing.now_ns ())

let past_deadline t = function
  | None -> false
  | Some d -> Int64.compare (t.clock ()) d >= 0

(* One phase boundary: a serial engine records the time since [stamp]
   into [h] and starts the next phase; partitioned lanes skip the phase
   histograms (they are not thread-safe). *)
let lap ~serial h stamp =
  if serial then begin
    let now = now () in
    Essa_obs.Histogram.record h (now - stamp);
    now
  end
  else stamp

(* The auction driver behind [run_auction], [run_partitioned] and
   [replay_auction]: the begin pass, the deadline ladder, the cache, winner
   determination and pricing, click sampling and billing.  [forced = None]
   lets the deadline ladder pick the tier; replay passes [Some tier] to
   re-execute the recorded tier against the recorded snapshot, clock
   ignored.  Only three things depend on the engine's shape:

   - the clock: a serial auction's time is the engine's auction count, a
     partitioned one's the keyword clock that [tick_p] / [begin_auction_p]
     advance;
   - the begin pass and win notification: [on_auction] / [record_win
     ~time], or [begin_auction_p] / [record_win_p];
   - the phase histograms, which only serial engines record.

   Determinism contract (partitioned engines): everything this function
   reads is either keyword-local (fleet partition state, keyword clock,
   the per-keyword click RNG — split off the user seed by keyword, so
   independent of lane interleaving) or the spend snapshot taken at
   [begin_auction_p] (and recorded in the summary).  Hence the summary is
   a pure function of (keyword-local history, snapshot, forced tier),
   which is exactly what the replay checker re-executes. *)
let drive ?deadline_ns ?snapshot ~forced t ~keyword =
  let serial = not t.is_partitioned in
  let p = partition_of t ~keyword in
  let time = Atomic.fetch_and_add t.a_auctions 1 + 1 in
  Essa_obs.Counter.incr t.m.c_auctions;
  let t0 = now () in
  let unfilled =
    match forced with
    | Some tier -> tier = Some Unfilled
    | None -> past_deadline t deadline_ns
  in
  if unfilled then begin
    (* Already past the deadline before any work: serve the query
       unfilled and shed everything but the clock — no snapshot, no
       program updates, no RNG consumption, so an Unfilled tick needs no
       witness to replay ([spend_snapshot = None]).  Only partitioned
       engines take deadlines, so this is a keyword clock tick. *)
    let kt = Essa_strategy.Roi_fleet.tick_p t.fleet ~keyword in
    Essa_obs.Counter.incr t.m.c_degraded_unfilled;
    Essa_obs.Histogram.record p.p_h_total (now () - t0);
    {
      auction_time = kt;
      keyword;
      assignment = Array.make t.k None;
      prices = Array.make t.k 0;
      clicks = Array.make t.k false;
      revenue = 0;
      degraded = Some Unfilled;
      spend_snapshot = None;
    }
  end
  else begin
    let (module M) = t.mech in
    (* Bid-update decimation: the begin pass (spend snapshot, scheduled
       churn, program updates) runs on every [update_every]-th auction of
       the keyword; the auctions in between only advance the clock and
       evaluate against frozen bids (pacing targets still accrue per
       auction exactly as at update_every = 1).  A decimated partitioned
       auction records [spend_snapshot = None], which is also how replay
       knows to skip the begin pass: the live/replay decision is a pure
       function of the recorded witness, never of the replaying engine's
       own counters. *)
    let update =
      match forced with
      | Some _ ->
          (* Replay still advances the decimation counter: a recovered
             engine replays the WAL tail through this path and must leave
             [p_au_count] exactly where the uninterrupted run would have,
             so its *subsequent live* auctions fall on the same
             update/skip phase.  The update decision itself stays a pure
             function of the recorded witness. *)
          p.p_au_count <- p.p_au_count + 1;
          snapshot <> None
      | None ->
          let c = p.p_au_count in
          p.p_au_count <- c + 1;
          c mod t.update_every = 0
    in
    (* The window closes: a restored frozen allocation (if any) dies with
       it — from here the rebuilt lists are authoritative. *)
    if update then p.p_frozen <- None;
    let kt, snap_opt =
      if serial then begin
        if update then Essa_strategy.Roi_fleet.on_auction t.fleet ~time ~keyword;
        (time, None)
      end
      else if update then begin
        let kt, snap =
          Essa_strategy.Roi_fleet.begin_auction_p t.fleet ~keyword ?snapshot ()
        in
        (kt, Some snap)
      end
      else (Essa_strategy.Roi_fleet.tick_p t.fleet ~keyword, None)
    in
    let stamp = lap ~serial t.m.h_program_eval t0 in
    let spend_snapshot = Option.map Array.copy snap_opt in
    let cheap =
      match forced with
      | Some tier -> tier = Some Cheap_allocation
      | None -> past_deadline t deadline_ns
    in
    (* Flat scratch is slot-indexed: churn inside [begin_auction_p] may
       have grown the partition past the scratch, so re-check here. *)
    let scr =
      if not t.is_flat then p.p_scratch
      else begin
        let cap =
          Sstore.flat_capacity (Essa_strategy.Roi_fleet.store_of t.fleet)
            ~keyword
        in
        if Array.length p.p_scratch.Mechanism.stamp < cap then
          p.p_scratch <-
            Mechanism.make_scratch ~method_:`Rh ~n:cap ~k:t.k;
        p.p_scratch
      end
    in
    let assignment, prices, degraded, stamp =
      if cheap then begin
        (* Budget exhausted after program evaluation: skip the full
           winner determination (the dominant cost at scale) for the
           mechanism's single-pass fallback — the paper's RH reduction
           taken to its cheapest limit.  A degraded allocation is still a
           real one: clicks are sampled and winners billed and notified,
           so the RNG and advertiser states stay on one timeline. *)
        let assignment, prices = M.cheap t.ctx scr ~keyword in
        Essa_obs.Counter.incr t.m.c_degraded_cheap;
        let stamp = lap ~serial t.m.h_winner_determination stamp in
        (assignment, prices, Some Cheap_allocation, stamp)
      end
      else begin
        match (if update then None else p.p_frozen) with
        | Some (fa, fp) ->
            (* Snapshot-restored open window: serve the allocation the
               killed engine's last begin pass computed (see
               [epartition.p_frozen]). *)
            (Array.copy fa, Array.copy fp, None, stamp)
        | None -> (
            (* Probe the keyword's evaluation cache.  The epoch is read
               after the begin pass, so this auction's begin-pass
               mutations (bid moves, list changes, lazy retirements,
               churn) are already counted; winner determination and
               pricing only read the fleet, so the epoch read here still
               labels the entry correctly when it is stored below. *)
            let epoch =
              if t.cache_on then
                Essa_strategy.Roi_fleet.epoch_of t.fleet ~keyword
              else 0
            in
            let hit =
              if t.cache_on then cache_probe t ~epoch p.p_cache else None
            in
            match hit with
            | Some ce ->
                cache_replay_counters t ce;
                let stamp = lap ~serial t.m.h_winner_determination stamp in
                let stamp = lap ~serial t.m.h_pricing stamp in
                ( Array.copy ce.ce_assignment,
                  Array.copy ce.ce_prices,
                  None,
                  stamp )
            | None ->
                let ev = M.winner_determination t.ctx scr ~keyword in
                let assignment = ev.Mechanism.e_assignment in
                let stamp = lap ~serial t.m.h_winner_determination stamp in
                let prices = M.price t.ctx scr ~keyword ev in
                let stamp = lap ~serial t.m.h_pricing stamp in
                if t.cache_on then
                  p.p_cache <-
                    Some (cache_entry_of ~epoch scr ~assignment ~prices);
                (assignment, prices, None, stamp))
      end
    in
    (* Sample the user's clicks top-to-bottom; bill per click. *)
    let clicks = Array.make t.k false in
    let revenue = ref 0 in
    let filled = ref 0 and clicked_count = ref 0 in
    for j0 = 0 to Array.length assignment - 1 do
      match assignment.(j0) with
      | None -> ()
      | Some adv ->
          incr filled;
          let price = prices.(j0) in
          let clicked = Essa_util.Rng.bernoulli p.p_rng t.ctr.(adv).(j0) in
          clicks.(j0) <- clicked;
          if clicked then begin
            revenue := !revenue + price;
            incr clicked_count
          end;
          if serial then
            Essa_strategy.Roi_fleet.record_win t.fleet ~time ~adv ~keyword
              ~price ~clicked
          else
            Essa_strategy.Roi_fleet.record_win_p t.fleet ~adv ~keyword ~price
              ~clicked
    done;
    p.p_revenue <- p.p_revenue + !revenue;
    ignore (Atomic.fetch_and_add t.a_revenue !revenue);
    Essa_obs.Counter.add t.m.c_revenue !revenue;
    Essa_obs.Counter.add t.m.c_clicks !clicked_count;
    Essa_obs.Counter.add t.m.c_slots_filled !filled;
    let now = now () in
    if serial then Essa_obs.Histogram.record t.m.h_user (now - stamp);
    Essa_obs.Histogram.record p.p_h_total (now - t0);
    {
      auction_time = kt;
      keyword;
      assignment;
      prices;
      clicks;
      revenue = !revenue;
      degraded;
      spend_snapshot;
    }
  end

let run_auction t ~keyword =
  if keyword < 0 || keyword >= t.nk then
    invalid_arg (Printf.sprintf "Engine.run_auction: keyword %d" keyword);
  if t.is_partitioned then
    invalid_arg "Engine.run_auction: partitioned engine (use run_partitioned)";
  drive ~forced:None t ~keyword

let check_partitioned t ~keyword =
  if keyword < 0 || keyword >= t.nk then
    invalid_arg (Printf.sprintf "Engine.run_partitioned: keyword %d" keyword);
  if not t.is_partitioned then
    invalid_arg "Engine.run_partitioned: serial engine (use run_auction)"

let run_partitioned ?deadline_ns ?batch t ~keyword =
  check_partitioned t ~keyword;
  (match batch with
  | Some b when b <> keyword ->
      invalid_arg
        (Printf.sprintf "Engine.run_partitioned: batch is for keyword %d" b)
  | _ -> ());
  drive ?deadline_ns ~forced:None t ~keyword

let replay_auction ?snapshot ~degraded t ~keyword =
  check_partitioned t ~keyword;
  drive ?snapshot ~forced:(Some degraded) t ~keyword

let keyword_revenue t ~keyword =
  if not t.is_partitioned then
    invalid_arg "Engine.keyword_revenue: serial engine";
  match t.partitions.(keyword) with None -> 0 | Some p -> p.p_revenue

let sync_partition_metrics t =
  if not t.is_partitioned then
    invalid_arg "Engine.sync_partition_metrics: serial engine";
  Array.iter
    (function
      | None -> ()
      | Some p ->
          Essa_obs.Histogram.merge_into ~into:t.m.h_total p.p_h_total;
          Essa_obs.Histogram.reset p.p_h_total)
    t.partitions

(* Durability: the engine half of a WAL snapshot.  The store image
   ([Sstore.encode]) carries everything keyword-local plus the atomic
   spend cells; the extras below are the engine's own mutable state —
   the atomic cross-keyword tallies and, per touched partition, the
   click-RNG position, revenue tally and decimation counter.  Written at
   a quiescent point (no lane mid-auction), read back by
   [restore_extras] after the store has been rebuilt. *)

let encode_state t buf =
  if not t.is_partitioned then
    invalid_arg "Engine.encode_state: serial engine";
  let module B = Essa_util.Bincode in
  Sstore.encode
    ~bid:(fun ~adv ~keyword -> Essa_strategy.Roi_fleet.bid t.fleet ~adv ~keyword)
    (Essa_strategy.Roi_fleet.store_of t.fleet)
    buf;
  B.write_int buf (Atomic.get t.a_auctions);
  B.write_int buf (Atomic.get t.a_revenue);
  B.write_int buf t.nk;
  let (module M) = t.mech in
  (* Recomputing a frozen allocation is not an auction: it counts its
     accesses on private handles, so writing a snapshot leaves the
     exported essa.ta.* / reduction counters where they were. *)
  let quiet_ctx =
    {
      t.ctx with
      Mechanism.x_c_ta_sorted = Essa_obs.Counter.create ();
      x_c_ta_random = Essa_obs.Counter.create ();
      x_c_ta_seen = Essa_obs.Counter.create ();
      x_c_reduced = Essa_obs.Counter.create ();
    }
  in
  Array.iteri
    (fun keyword p ->
      B.write_option buf
        (fun buf p ->
          B.write_i64 buf (Essa_util.Rng.state p.p_rng);
          B.write_int buf p.p_revenue;
          B.write_int buf p.p_au_count;
          (* The open decimation window's allocation, for dense engines
             only: a dense rebuild re-classifies the adjustment lists
             from snapshot-time spends, so decimated auctions after a
             restore would not reproduce the killed engine's frozen
             window.  Flat stores restore their cells verbatim and need
             nothing.  Mid-window the allocation is a pure function of
             the lists (they only move at begin passes), so recomputing
             here yields exactly what the engine is serving; an engine
             that is itself restored propagates its [p_frozen] instead —
             its rebuilt lists are not authoritative until the window
             closes. *)
          let frozen =
            match p.p_frozen with
            | Some _ as f -> f
            | None ->
                if
                  t.is_flat || t.update_every <= 1
                  || p.p_au_count mod t.update_every = 0
                then None
                else
                  let scr = p.p_scratch in
                  let ev = M.winner_determination quiet_ctx scr ~keyword in
                  let prices = M.price quiet_ctx scr ~keyword ev in
                  Some (ev.Mechanism.e_assignment, prices)
          in
          B.write_option buf
            (fun buf (assignment, prices) ->
              B.write_int_array buf
                (Array.map (function None -> -1 | Some a -> a) assignment);
              B.write_int_array buf prices)
            frozen)
        p)
    t.partitions

let restore_extras t r =
  if not t.is_partitioned then
    invalid_arg "Engine.restore_extras: serial engine";
  let module B = Essa_util.Bincode in
  Atomic.set t.a_auctions (B.read_int r);
  Atomic.set t.a_revenue (B.read_int r);
  let nk = B.read_int r in
  if nk <> t.nk then raise B.Truncated;
  for keyword = 0 to nk - 1 do
    match B.read_option r (fun r ->
        let st = B.read_i64 r in
        let rev = B.read_int r in
        let auc = B.read_int r in
        let frozen =
          B.read_option r (fun r ->
              let assignment = B.read_int_array r in
              let prices = B.read_int_array r in
              ( Array.map (fun a -> if a < 0 then None else Some a) assignment,
                prices ))
        in
        (st, rev, auc, frozen))
    with
    | None -> ()
    | Some (st, rev, auc, frozen) ->
        if rev < 0 || auc < 0 then raise B.Truncated;
        (match frozen with
        | Some (a, pr) when Array.length a <> t.k || Array.length pr <> t.k ->
            raise B.Truncated
        | _ -> ());
        let p = partition_of t ~keyword in
        Essa_util.Rng.set_state p.p_rng st;
        p.p_revenue <- rev;
        p.p_au_count <- auc;
        p.p_frozen <- frozen
  done

type phase_breakdown = {
  program_eval_ms : float;
  winner_determination_ms : float;
  pricing_ms : float;
  user_ms : float;
}

(* Compatibility view over the histograms: the cumulative sums the
   pre-metrics engine exposed directly. *)
let phase_breakdown t =
  let ms h = float_of_int (Essa_obs.Histogram.sum h) /. 1e6 in
  {
    program_eval_ms = ms t.m.h_program_eval;
    winner_determination_ms = ms t.m.h_winner_determination;
    pricing_ms = ms t.m.h_pricing;
    user_ms = ms t.m.h_user;
  }
