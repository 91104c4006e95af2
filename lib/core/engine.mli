(** The repeated-auction system of Section V: n advertisers running the
    ROI-equalizing heuristic, a stream of single-keyword queries, winner
    determination by one of the four benchmarked methods, generalized
    second pricing, sampled user clicks, and pay-per-click billing.

    The four methods reproduce the paper's Figure 12/13 contenders:

    - [`Lp]     — full weight matrix, assignment LP via revised simplex;
    - [`Lp_dense] — the same LP through the textbook dense-tableau simplex
                  (the truly naive baseline; practical only at small n);
    - [`H]      — full matrix, straightforward Hungarian (advertiser-major);
    - [`Rh]     — per-slot top-(k+1) by heap scan, Hungarian on the reduced
                  graph (Section III-E);
    - [`Rhtalu] — RH where the per-slot top lists come from the threshold
                  algorithm over maintained sorted lists, and program
                  evaluation is replaced by the logical-update machinery
                  (Section IV); only winners and fired triggers do work.

    Given equal seeds, [`Rh] and [`Rhtalu] engines produce bit-identical
    auction streams — same allocations, prices, clicks, revenue and final
    advertiser states (integration-tested); they differ only in cost.
    Top lists carry k+1 candidates so that the GSP runner-up is always in
    the reduced graph. *)

type method_ = [ `Lp | `Lp_dense | `H | `Rh | `Rhtalu ]

type pricing = [ `Gsp | `Vcg | `Pay_as_bid ]

type mechanism =
  [ `Classic | `Stable | `Reserve of [ `Fixed of int array | `Monopoly ] ]
(** The auction mechanism — winner determination + pricing + degraded
    tier as a {!Mechanism.S} first-class module:

    - [`Classic] (default) — the paper's matching mechanism with the
      engine's [pricing]; bit-identical to the pre-interface engine
      ({!Mech_classic});
    - [`Stable] — Aggarwal et al.'s general auction via ascending-price
      stable matching; [pricing] is ignored (prices are the auction's
      fixed point) ({!Stable_match});
    - [`Reserve rule] — classic winner determination and [pricing] under
      a per-keyword reserve floor: [`Fixed floors] (length = keyword
      count, non-negative entries) or the empirical [`Monopoly] reserve
      recomputed from the keyword's current bids each auction
      ({!Reserve}).  The effective floor is
      [max reserve (per-keyword floor)]; thin keywords can go unfilled.

    Orchestration — the evaluation cache, bid-update decimation,
    deadlines, WAL snapshot/replay — is mechanism-agnostic
    (every mechanism's evaluation is a pure function of keyword-local
    fleet state), so all engine features compose with all mechanisms. *)

type t

val create :
  ?metrics:Essa_obs.Registry.t ->
  ?clock:(unit -> int64) ->
  ?partitioned:bool ->
  ?cache:bool ->
  ?update_every:int ->
  ?mechanism:mechanism ->
  reserve:int ->
  pricing:pricing ->
  method_:method_ ->
  ctr:float array array ->
  states:Essa_strategy.Roi_state.t array ->
  user_seed:int ->
  unit ->
  t
(** [ctr.(i).(j)] is advertiser [i]'s click probability in slot [j+1]
    (shape n × k defines the instance size); [states] are the per-
    advertiser ROI programs (ownership transferred); [user_seed] drives
    click sampling.  [pricing] selects what winners pay per click: the
    Section V generalized second price, the VCG externality (computed
    exactly on the reduced view for RH/RHTALU), or their own bid.
    [reserve] is a per-click floor (0 disables it): advertisers bidding below
    it cannot win a slot, and GSP prices are floored at it — the standard
    sponsored-search extension of the paper's pricing step.
    [metrics] is the registry this engine records into (default: a fresh
    private one, readable via {!metrics}); passing a shared registry makes
    several engines aggregate into the same histograms/counters, which is
    how sweep harnesses collect one snapshot per run.
    [clock] is the monotonic nanosecond clock consulted by the
    {!run_partitioned} deadline checks (default {!Essa_util.Timing.now_ns});
    injecting a scripted clock lets tests pin exactly which degradation
    tier trips, without sleeps.  Latency metrics always read the real
    clock.
    [partitioned] (default false) builds a keyword-partitioned engine:
    the fleet is {!Essa_strategy.Roi_fleet.logical_p} for both [`Rh] and
    [`Rhtalu], so the method picks the winner-determination kernel only
    (the serial engine keeps the paper's RH-vs-RHTALU program-evaluation
    contrast).  Each keyword carries its own auction clock,
    click-sampling RNG stream (split off [user_seed] by keyword) and
    scratch, and auctions are driven with {!run_partitioned} instead of
    {!run_auction}.  Different keywords may then be auctioned
    concurrently from different domains, as long as each keyword has
    exactly one owning lane.  Only [`Rh] and [`Rhtalu] support it.
    [cache] (default true) enables the cross-auction evaluation cache.
    Per keyword, the engine keeps the last completed
    winner-determination + pricing result together with the keyword's
    dirty epoch ({!Essa_strategy.Roi_fleet.epoch_of}) at which it was
    computed; a repeat auction whose begin pass left the epoch unchanged
    reuses the assignment and prices instead of re-running the threshold
    algorithm, graph reduction, Hungarian solve and pricing.  Clicks,
    billing and win notifications always run per auction, and a hit
    re-reports the stored cold-run [essa.ta.*] / reduction counters, so a
    cached run is bit-identical to an uncached one — summaries, final
    states {e and} access-statistic counters (property-tested).  Hits and
    misses are counted in [essa.engine.cache_hits] /
    [essa.engine.cache_misses] / [essa.engine.cache_invalidations].
    Deadline-degraded tiers bypass the cache.
    [update_every] (default 1) decimates bid updates: the program-update
    pass runs on every [update_every]-th auction of a keyword, and the
    auctions in between evaluate against frozen bids.  The fleet clock
    still advances per auction, so pacing targets (rate × time) accrue
    exactly as at 1 — only the frequency at which programs {e observe}
    their spend and move bids changes.  This models the production regime
    where queries arrive orders of magnitude faster than bid updates, and
    is the regime the evaluation cache exploits: between update passes
    the keyword's epoch is stable (clicked charges alone never bump it),
    so repeat auctions hit.  On partitioned engines a decimated auction
    records [spend_snapshot = None], which is also how {!replay_auction}
    knows to skip the begin pass — replay follows the recorded witness,
    never the replaying engine's own counters, so any [update_every]
    replays any log.
    [mechanism] (default [`Classic]) selects the auction mechanism; see
    {!mechanism}.
    @raise Invalid_argument on shape mismatch, probabilities outside
    [0,1], [update_every < 1], advertiser
    states that disagree on the number of keywords, an unsupported
    [partitioned] combination, or a malformed [`Reserve (`Fixed _)]
    floor array. *)

val create_flat :
  ?metrics:Essa_obs.Registry.t ->
  ?clock:(unit -> int64) ->
  ?cache:bool ->
  ?update_every:int ->
  ?mechanism:mechanism ->
  reserve:int ->
  pricing:pricing ->
  ctr:float array array ->
  store:Essa_strategy.State_store.t ->
  user_seed:int ->
  unit ->
  t
(** A partitioned engine over a {e flat} state store
    ({!Essa_strategy.State_store.create_flat}): per-keyword slot-indexed
    partitions holding only the advertisers that bid on each keyword, with
    free-list churn.  This is the scale configuration — 10⁴–10⁵ keywords,
    10⁵–10⁶ advertisers with sparse participation — where the dense
    engine's nk×n and n-per-keyword side structures stop fitting.

    [ctr] is still n × k (global advertiser id × slot); per-auction work
    reads only the queried keyword's live slots, so it is
    O(live · k + k³), independent of n and of the keyword count.  Winner
    determination is the [`Rh] reduction (per-slot top-(k+1) scan of the
    partition, Hungarian on the reduced graph) and on a universe where
    partition membership matches a dense fleet the two engines produce
    identical assignments, prices and clicks (property-tested).  Drive it
    with {!run_partitioned} exactly like other partitioned engines;
    {!replay_auction} witnesses are partition-slot-indexed
    ({!Essa_strategy.Roi_fleet.snapshot_index}).
    [cache] is the evaluation cache and [update_every] the bid-update
    decimation period, both as in {!create}: flat partitions key the
    cache on the store's per-keyword epoch, which enroll/retire churn and
    begin-pass bid moves bump; decimated auctions skip the begin pass
    (including scheduled churn — churn lands on update ticks only) and
    record [spend_snapshot = None].

    @raise Invalid_argument on a dense store, shape mismatch, [`Vcg]
    pricing (needs the dense pricing view), probabilities outside [0,1]
    or a negative reserve. *)

val n : t -> int
val k : t -> int
val num_keywords : t -> int
val time : t -> int

val is_flat : t -> bool
(** True for {!create_flat} engines. *)

val mechanism_name : t -> string
(** The running mechanism's name: ["gsp"], ["vcg"] or ["pay-as-bid"]
    (classic, by pricing), ["stable"], or ["reserve"]. *)

val cache_enabled : t -> bool
(** Whether this engine runs with the cross-auction evaluation cache
    (the value of [?cache]). *)

type degrade =
  | Cheap_allocation
      (** deadline tripped after program evaluation: full winner
          determination was replaced by a single-pass top-k allocation
          (greedy by slot-1 expected revenue, pay-as-bid prices floored at
          the reserve).  Clicks are still sampled and winners billed. *)
  | Unfilled
      (** deadline already blown when the auction started: served with
          every slot empty, zero revenue, and this auction's bid-program
          updates shed ([on_auction] skipped; no RNG consumed). *)

type summary = {
  auction_time : int;
  keyword : int;
  assignment : Essa_matching.Assignment.t;
  prices : int array;   (** per-slot per-click price, 0 for empty slots *)
  clicks : bool array;  (** per-slot click outcomes *)
  revenue : int;        (** cents billed in this auction *)
  degraded : degrade option;
      (** [None] on the full path; [Some _] when a deadline degraded this
          auction (see {!degrade}).  Fault-free runs with no deadline are
          always [None], preserving the bit-identity contract. *)
  spend_snapshot : int array option;
      (** Partitioned full/cheap path only: the per-advertiser spend
          snapshot every decision in this auction read — the witness that
          makes the summary replayable bit-for-bit with {!replay_auction}.
          [None] on the serial path and on {!Unfilled} ticks (which read
          no spend). *)
}

val run_auction : t -> keyword:int -> summary
(** Execute one full auction for a query on [keyword] (0-based): the
    paper's serial loop, which never degrades.

    Serial and partitioned engines run one auction driver; only the
    clock (the engine's auction count here), the begin pass and win
    notification, and the per-phase latency histograms (recorded by
    serial engines only) depend on the shape.
    @raise Invalid_argument on a bad keyword index, or on a partitioned
    engine (use {!run_partitioned}). *)

val total_revenue : t -> int
val auctions_run : t -> int

(** {2 Partitioned execution}

    A [~partitioned:true] engine decomposes the global auction clock into
    per-keyword clocks and samples clicks from per-keyword RNG streams, so
    auctions on {e different} keywords commute: any per-keyword-FIFO
    interleaving of {!run_partitioned} calls yields the same per-keyword
    summary streams and the same final advertiser states up to the order
    atomic spend updates land — which each auction makes explicit by
    recording the spend snapshot it read.  Concurrency contract: each
    keyword has exactly one owning lane; calls for different keywords may
    run concurrently from different domains. *)

val partitioned : t -> bool

val keyword_time : t -> keyword:int -> int
(** The keyword's local auction clock (0 before its first auction).
    @raise Invalid_argument on a serial engine. *)

type batch
(** A keyword tag with no effect: every partitioned auction reads its own
    spend snapshot.  Kept only for the serving benchmark's traced replay,
    which still starts one per keyword group. *)

val batch_start : t -> keyword:int -> batch
(** The tag for [keyword].
    @raise Invalid_argument on a bad keyword index or a serial engine. *)

val run_partitioned : ?deadline_ns:int64 -> ?batch:batch -> t -> keyword:int -> summary
(** Execute one auction on a partitioned engine, through the same driver
    as {!run_auction}, with [auction_time] now the keyword-local clock and
    [spend_snapshot] carrying the replay witness (except {!Unfilled},
    which only ticks the clock).

    [deadline_ns] is an absolute monotonic deadline (same clock as
    [Essa_util.Timing.now_ns], or the engine's injected [clock]): when the
    clock reaches it the auction degrades rather than keep burning time it
    no longer has.  The ladder has two rungs, checked at phase boundaries
    (the budget is advisory between checks, not preemptive):

    - already past the deadline at the start → {!Unfilled};
    - past it after program evaluation, before winner determination (the
      dominant cost at scale) → {!Cheap_allocation}.

    Pricing and click/billing are O(k²) and always run for filled
    allocations.  Omitted deadline = never degrade.  The counters
    [essa.auction.degraded_cheap] / [essa.auction.degraded_unfilled]
    record trips.  Only
    [essa.auction.total_ns] is recorded (per partition, see
    {!sync_partition_metrics}); the phase histograms are not.  Must be
    called by the keyword's owning lane.  [batch] has no effect beyond
    its keyword check (see {!batch}).
    @raise Invalid_argument on a bad keyword index, a serial engine, or a
    batch started for a different keyword. *)

val replay_auction :
  ?snapshot:int array -> degraded:degrade option -> t -> keyword:int -> summary
(** Re-execute one auction against a recorded witness: [snapshot] is the
    recorded [spend_snapshot] (omitted for {!Unfilled}), [degraded] the
    recorded tier (forced — the live deadline ladder is bypassed).  On a
    fresh partitioned engine built with the same parameters and driven in
    each keyword's recorded order, every replayed summary is bit-identical
    to the recorded one; {!Essa_serve.Replay} packages the full check.
    @raise Invalid_argument on a bad keyword index or a serial engine. *)

val keyword_revenue : t -> keyword:int -> int
(** Cents billed on one keyword's auctions (partitioned engines only). *)

val sync_partition_metrics : t -> unit
(** Drain every keyword partition's private latency histogram into the
    shared [essa.auction.total_ns] histogram (merge, then reset).  Call
    from a single domain while no lane is running auctions — e.g. after
    {!Essa_serve.Server.stop}.
    @raise Invalid_argument on a serial engine. *)

val encode_state : t -> Buffer.t -> unit
(** Serialize the engine's full mutable state for a durability snapshot:
    the fleet's state-store image ({!Essa_strategy.State_store.encode},
    with this engine's effective bids as the dense bid vector) followed
    by the engine extras — atomic auction/revenue tallies and, per
    touched keyword partition, the click-RNG position, revenue tally,
    bid-update decimation counter, and (dense engines mid-decimation-
    window only) the open window's frozen [(assignment, prices)].  The
    frozen allocation exists because a dense engine rebuilt from bare
    states re-classifies its adjustment lists with snapshot-time spends,
    while the live engine's open window keeps serving the allocation its
    last update pass computed — so the snapshot captures that allocation
    and a restored engine serves it on decimated auctions until the next
    update pass (flat stores restore cell-verbatim and never need it).
    Call at a quiescent point: no lane may be mid-auction.  A snapshot
    plus the per-keyword summary tail recorded after it reconstructs a
    bit-identical continuation (see {!Essa_serve}'s recovery).
    @raise Invalid_argument on a serial engine. *)

val restore_extras : t -> Essa_util.Bincode.reader -> unit
(** Read back the engine extras written by {!encode_state} (the reader
    must be positioned just past the store image, i.e. after
    {!Essa_strategy.State_store.decode} consumed its bytes) into a
    freshly-built engine over the restored store.  After this, replay the
    WAL tail with {!replay_auction} and the engine continues exactly
    where the snapshot left off — including cache epochs, decimation
    phase, click-RNG streams and any frozen open-window allocation.
    @raise Invalid_argument on a serial engine.
    @raise Essa_util.Bincode.Truncated on malformed input or a
    keyword-count mismatch. *)

val bid : t -> adv:int -> keyword:int -> int
(** Current bid of an advertiser (inspection / tests). *)

val fleet : t -> Essa_strategy.Roi_fleet.t

val metrics : t -> Essa_obs.Registry.t
(** The engine's metrics registry.  Per-phase latency histograms
    ([essa.auction.phase.*_ns], plus [essa.auction.total_ns]) give
    p50/p90/p99/max per-auction latencies; counters cover auctions,
    revenue, clicks, filled slots, threshold-algorithm access statistics
    ([essa.ta.*]), reduced-graph candidate counts
    ([essa.reduction.candidates]) and evaluation-cache traffic
    ([essa.engine.cache_*]).  Export with {!Essa_obs.Export}. *)

type phase_breakdown = {
  program_eval_ms : float;          (** cumulative, all auctions so far *)
  winner_determination_ms : float;
  pricing_ms : float;
  user_ms : float;                  (** click sampling + billing + notify *)
}

val phase_breakdown : t -> phase_breakdown
(** Where this engine's wall time went, cumulatively — the basis of the
    phase-breakdown ablation (program evaluation dominates the naive
    methods at scale; winner determination dominates RHTALU).  A thin
    compatibility view over the {!metrics} histograms' sums; use the
    registry directly for percentiles. *)
