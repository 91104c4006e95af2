(** The Section V experimental workload, parameter for parameter:

    - [k] = 15 slots, 10 keywords;
    - queries arrive at a constant rate, each containing one keyword
      uniformly at random; that keyword has relevance 1, the others 0;
    - every bidder runs the ROI-equalizing heuristic;
    - per-keyword click values uniform in [0, 50] cents, with at least one
      non-zero value per bidder; maxbid = value;
    - target spending rates uniform in [1, bidder's maximum value];
    - [0.1, 0.9] is partitioned into [k] disjoint equal intervals, the
      j-th highest associated with slot j, and each advertiser's click
      probability for a slot is uniform within the slot's interval.

    A workload is generated once per instance size from a seed, then
    instantiated per engine (each engine needs its own mutable advertiser
    states). *)

type t

val section5 :
  ?k:int -> ?num_keywords:int -> ?max_value:int -> ?brand_fraction:float ->
  ?budgeted_fraction:float -> seed:int -> n:int -> unit -> t
(** Defaults: [k = 15], [num_keywords = 10], [max_value = 50],
    [brand_fraction = 0.], [budgeted_fraction = 0.] (the paper's exact
    Section V setup).  A positive [brand_fraction] gives that share of
    advertisers a static [Click ∧ Slot1] premium on their favourite
    keyword — the Section II-C boot seller — exercising multi-feature bids
    in the scalable engine; a positive [budgeted_fraction] gives that
    share a daily budget of 50-500 cents (bids retire on exhaustion). *)

val n : t -> int
val k : t -> int
val num_keywords : t -> int

val ctr : t -> float array array
(** The (shared, immutable) click-probability matrix. *)

val slot_interval : t -> slot:int -> float * float
(** The CTR interval of a 1-based slot. *)

val fresh_states : t -> Essa_strategy.Roi_state.t array
(** A new independent copy of all advertiser states (same initial values
    every call). *)

val make_engine :
  ?metrics:Essa_obs.Registry.t ->
  ?partitioned:bool ->
  ?cache:bool ->
  ?update_every:int ->
  ?pricing:Essa.Engine.pricing ->
  ?reserve:int ->
  ?mechanism:Essa.Engine.mechanism ->
  ?states:Essa_strategy.Roi_state.t array ->
  t -> method_:Essa.Engine.method_ -> Essa.Engine.t
(** Convenience: engine over fresh states ([pricing] defaults to GSP as
    in Section V); the user-click seed is derived from the workload seed,
    so engines created from the same workload see identical users.
    [mechanism] (default [`Classic], as in {!Essa.Engine.create}) picks
    the auction mechanism.
    [states] substitutes restored mid-run advertiser states for the fresh
    ones — the crash-recovery path rebuilds an engine over a decoded
    snapshot while keeping the workload's CTRs and user-seed derivation.
    [metrics], [partitioned], [cache] and [update_every] are forwarded
    to {!Essa.Engine.create} — a shared registry lets every engine of a
    sweep record into one snapshot, [partitioned] builds the
    keyword-partitioned engine the serving layer drives, and [cache] /
    [update_every] control the cross-auction evaluation cache and
    bid-update decimation (see {!Essa.Engine.create}). *)

val query_stream : t -> seed:int -> int Seq.t
(** Infinite uniform keyword stream. *)

val queries : t -> seed:int -> count:int -> int array
(** The first [count] keywords of {!query_stream} materialized — the
    replayable query trace the serving layer's equivalence tests and
    throughput benchmarks feed to both contenders.
    @raise Invalid_argument on a negative count. *)

(** {2 The Zipf universe}

    The production-shaped workload: [K] keywords queried under a Zipf([s])
    popularity distribution, [N] advertisers each enrolled on a handful of
    keywords (sparse participation — nothing materializes an n × K
    structure), and optional seeded bidder churn.  Built for the flat
    {!Essa_strategy.State_store} layout and the serving stack. *)

type universe

val universe :
  ?slots:int -> ?max_value:int -> ?max_keywords_per_adv:int ->
  ?brand_fraction:float -> ?budgeted_fraction:float ->
  keywords:int -> n:int -> zipf_s:float -> seed:int -> unit -> universe
(** Generate a universe: per-advertiser CTRs in the Section V slot
    intervals; each advertiser enrolls on 1..[max_keywords_per_adv]
    (default 3) distinct keywords chosen uniformly, with per-keyword click
    values uniform in [1, max_value] (default 50), maxbid = value, and the
    usual initial bid; targets uniform in [1, bidder's maximum value];
    [brand_fraction] / [budgeted_fraction] as in {!section5}.  The query
    skew comes entirely from the Zipf stream — keyword [i] (0-based) has
    weight [(i+1)^-s].  Deterministic in [seed]. *)

val universe_n : universe -> int
val universe_keywords : universe -> int
val universe_slots : universe -> int
val universe_zipf_s : universe -> float

val universe_ctr : universe -> float array array
(** The shared n × slots click-probability matrix. *)

val churn_seed_of : seed:int -> int
(** The churn RNG seed derived from a universe seed ([seed lxor 0xC0FFEE])
    — exposed so a replay harness can rebuild the exact churn schedule. *)

val universe_store :
  ?churn:float -> ?churn_seed:int -> universe -> unit ->
  Essa_strategy.State_store.t
(** A fresh flat store with the universe's initial enrollment.  With
    [churn] > 0 a deterministic churn hook is installed
    ({!Essa_strategy.State_store.set_on_tick}): on every keyword tick,
    with probability [churn], one bidder departs or a new one arrives on
    that keyword.  Each keyword draws from its own RNG stream split off
    [churn_seed] (default {!churn_seed_of}[ ~seed]) by keyword id and
    advanced once per keyword-local tick, so membership at any keyword
    time is a pure function of (universe, churn, seed) — a rebuilt store
    replays the same arrivals and departures without any churn log.
    @raise Invalid_argument if [churn] is outside [0,1]. *)

val universe_attach_churn :
  ?churn_seed:int -> universe -> Essa_strategy.State_store.t ->
  churn:float -> unit
(** Re-attach the deterministic churn hook to a {e restored} flat store
    (one rebuilt from a durability snapshot): installs the same
    [set_on_tick] hook {!universe_store} would, drawing from the
    store-owned per-keyword tick RNGs — whose positions the snapshot
    preserved — so churn resumes mid-stream instead of restarting.
    @raise Invalid_argument if [churn] is outside [0,1]. *)

val make_flat_engine :
  ?metrics:Essa_obs.Registry.t ->
  ?cache:bool ->
  ?update_every:int ->
  ?pricing:Essa.Engine.pricing ->
  ?reserve:int ->
  ?mechanism:Essa.Engine.mechanism ->
  universe -> store:Essa_strategy.State_store.t ->
  Essa.Engine.t
(** Convenience: {!Essa.Engine.create_flat} over the universe's CTRs with
    the same user-click seed derivation as {!make_engine}, so serving and
    replay engines built from the same universe see identical users.
    [mechanism] defaults to [`Classic], as in {!Essa.Engine.create_flat}. *)

val universe_query_stream : universe -> seed:int -> int Seq.t
(** Infinite Zipf([s]) keyword stream (binary search over cumulative
    weights; deterministic in [seed]). *)

val universe_queries : universe -> seed:int -> count:int -> int array
(** The first [count] keywords of {!universe_query_stream} materialized.
    @raise Invalid_argument on a negative count. *)
