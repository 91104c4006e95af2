(** A fleet of ROI-equalizing bidding programs behind one interface, with
    two interchangeable execution strategies:

    - {!naive} runs every program on every auction (the Section III
      engines: each of the n programs gets an explicit bid adjustment);
    - {!logical} is the Section IV-B machinery: per keyword, programs live
      on an increment / decrement / constant list with a shared adjustment
      variable, so the per-auction adjustment of all n programs is O(1);
      programs move between lists only when a *trigger* fires — either a
      bound trigger (the shared adjustment carried their bid to 0 or to
      their maxbid) or a spend-rate trigger (a losing program's spending
      rate, a monotonically decreasing function of the global auction
      clock, crossed its target) — or when they win and are updated
      explicitly.

    The two strategies are observationally identical — same [bid] answers,
    same descending bid iterators, same state after any interleaving of
    auctions and win notifications.  The test suite drives both on random
    traces and asserts exact agreement; the RHTALU engine relies on it.

    Time is the global auction counter, starting at 1, non-decreasing
    across {!on_auction} calls (shared monotone variable). *)

type t

val naive : Roi_state.t array -> t
(** Takes ownership of the states.  Ultra-lean compiled-strategy loop —
    the lower bound on per-program cost, used by unit tests. *)

val tabular : Roi_state.t array -> t
(** Takes ownership.  Every auction runs every program against its boxed
    relational rows (relevance refresh, spend-rate condition, bid update,
    Bids refresh) — the realistic program-evaluation cost of the paper's
    architecture, which the naive engines (LP/H/RH) pay and the logical
    machinery avoids.  Observationally identical to the other modes. *)

val logical : Roi_state.t array -> t
(** Takes ownership; bids are answered from the list machinery (the
    states' own bid arrays are no longer consulted). *)

val sql : Roi_state.t array -> t
(** Takes ownership.  Every program becomes a full {!Sql_program}
    (the ungated Fig. 5 body) interpreted over its private relational
    tables on every auction — the most faithful and the slowest strategy,
    here to validate the whole interpretation stack against the lean
    modes (the test suite drives all four in lockstep).
    @raise Invalid_argument if any state carries a budget (not
    expressible in the SQL body). *)

val logical_p : Roi_state.t array -> t
(** Takes ownership.  The dense partitioned fleet, behind both [`Rh] and
    [`Rhtalu] on a partitioned engine.  The partitioned counterpart of
    {!logical}: the Section IV-B list/trigger machinery, classifying
    against a per-keyword spend {e snapshot} and the keyword's local
    clock (see {!State_store}), never the live atomic spend cells.  The
    spend-rate trigger heap is split per keyword (keyed on keyword-local
    clocks), and the winner re-seat and budget retirement — cross-keyword
    in {!logical} — are deferred: each keyword notices spend movement in
    its next auction's snapshot and re-seats the advertiser locally.
    Drive it with {!begin_auction_p} / {!record_win_p}; the serial
    {!on_auction} / {!record_win} raise. *)

val flat_p : State_store.t -> t
(** The scalable partitioned strategy over a {e flat} {!State_store}
    (see {!State_store.create_flat}): per-keyword slot-indexed partitions
    holding only the advertisers that bid on each keyword, with free-list
    churn.  All state lives in the store — {!state}, {!bids_desc} and
    {!sorted_views} raise (the engine reads partitions through
    {!State_store.flat_view}); {!begin_auction_p} / {!record_win_p}
    delegate to the store, which runs every enrolled advertiser's
    adjustment explicitly and matches {!logical_p} bit-for-bit on a
    static membership (property-tested).
    @raise Invalid_argument if the store is dense. *)

val n : t -> int
val num_keywords : t -> int

val partitioned : t -> bool
(** True for {!logical_p} / {!flat_p} fleets. *)

val is_flat : t -> bool

val on_auction : t -> time:int -> keyword:int -> unit
(** An auction for [keyword] begins at [time]: apply every program's bid
    adjustment (naive: n updates; logical: trigger processing + two O(1)
    bulk adjustments). *)

val bid : t -> adv:int -> keyword:int -> int
(** Advertiser's current bid on the keyword. *)

val bids_desc : t -> keyword:int -> (int * int) Seq.t
(** All (advertiser, bid) pairs, descending by bid then ascending by
    advertiser — the sorted access list the threshold algorithm consumes.
    Naive/tabular: served from a persistent {!Bid_index} repaired in
    O(changed · log n) from the bids that moved since the last call
    (almost all bids are unchanged between auctions, so a TA open no
    longer re-sorts all n); sql: built by sorting (O(n log n));
    logical: a 3-way merge of the maintained lists (O(1) per element).
    Enable {!Bid_index.debug_checks} to assert the incremental index
    against a full re-sort on every call. *)

type sorted_view = {
  sv_ids : int array;      (** advertiser at sorted position *)
  sv_bids : int array;     (** its pre-adjustment bid at that position *)
  sv_len : int;            (** number of valid entries *)
  sv_adjust : int;         (** effective bid = [sv_bids.(i) + sv_adjust] *)
}
(** A struct-of-arrays window onto one maintained descending bid list
    (higher effective bid first, ties to the smaller advertiser id). *)

val sorted_views : t -> keyword:int -> sorted_view array
(** The keyword's descending bid order as 1–3 sorted views whose merge
    (by effective bid desc, id asc) is exactly {!bids_desc}; together the
    views cover every advertiser exactly once — the
    allocation-free sorted-access form the auction engine's threshold
    algorithm consumes.  Explicit strategies return one view aliasing the
    persistent {!Bid_index} arrays (repaired incrementally); logical
    strategies return the inc/dec/const lists' own sorted arrays
    ({!Adjustment_list.sorted_arrays}), kept in order by every insert and
    remove, with the shared adjustment as [sv_adjust] — nothing is
    flattened or copied per read.  The views alias internal state:
    read-only, valid until the next fleet mutation on this keyword. *)

val record_win :
  t -> time:int -> adv:int -> keyword:int -> price:int -> clicked:bool -> unit
(** The advertiser won a slot in the auction at [time] on [keyword]; if
    clicked it pays [price] and gains its click value.  Logical strategy:
    the winner is explicitly removed, updated and re-inserted, and its
    spend-rate trigger is re-armed. *)

val state : t -> adv:int -> Roi_state.t
(** Read access to an advertiser's scalar state (amt_spent, gained, …).
    For the logical strategy the per-keyword bid arrays inside are stale;
    use {!bid}. *)

val amt_spent : t -> adv:int -> int
val target_rate : t -> adv:int -> float

val budget_of : t -> adv:int -> int option
(** The advertiser's budget, layout-independent (works on flat fleets,
    where {!state} raises). *)

val premium_of : t -> adv:int -> keyword:int -> int
(** The advertiser's slot-1 premium on [keyword], layout-independent.
    Flat fleets answer 0 for advertisers not currently enrolled. *)

val snapshot_index : t -> keyword:int -> adv:int -> int option
(** Where the advertiser's spend reading lives in this keyword's
    spend-snapshot arrays: [Some adv] on dense layouts, the partition
    slot (or [None] if not enrolled) on flat ones.  The replay checker
    uses it to read recorded witnesses without assuming their shape. *)

val snapshot_bids : t -> keyword:int -> int array
(** Current bid of every advertiser on a keyword (test helper). *)

val epoch_of : t -> keyword:int -> int
(** The keyword's monotone {e dirty epoch} — the sum of every change
    counter that can observe a mutation of the keyword's evaluation
    inputs (bid moves through the {!Bid_index} mirrors, adjustment-list
    placements and non-empty bulk adjustments, budget retirements,
    flat-store enroll/retire churn).  Two equal reads bracket a window in
    which {!sorted_views} (or the flat partition view) was bit-identical,
    so a repeat auction on the keyword ranks, assigns and prices exactly
    as the previous one: the validity test for the engine's per-keyword
    evaluation cache.  Spend drift alone (charges) is not counted — it
    reaches evaluation only through the next begin pass ({!on_auction} /
    {!begin_auction_p}), which runs before every auction and bumps the
    epoch iff something actually moved.  Works on every strategy; the
    [sql] strategy conservatively bumps on every auction (never
    cacheable). *)

(** {2 Partitioned interface}

    Only valid on {!logical_p} / {!flat_p} fleets; other fleets raise
    [Invalid_argument].  Concurrency contract: each keyword has exactly
    one owning lane, which is the only caller of {!begin_auction_p} /
    {!tick_p} for that keyword; {!record_win_p} writes keyword-local
    tallies plus the advertiser's atomic spend cell. *)

val store_of : t -> State_store.t
(** The partitioned fleet's state store (the engine's flat paths read
    partition views through it).
    @raise Invalid_argument on a serial fleet. *)

val keyword_time : t -> keyword:int -> int
(** The keyword's local auction clock (0 before its first auction). *)

val pending_time_triggers : t -> keyword:int -> int
(** Entries in a {!logical_p} fleet's spend-rate trigger heap for the
    keyword, stale ones included; never more than [2n].
    @raise Invalid_argument on any other strategy. *)

val tick_p : t -> keyword:int -> int
(** Advance the keyword's clock without running bid adjustments — the
    [Unfilled]-degrade path, which sheds program updates but keeps the
    clock monotone.  Returns the new keyword time. *)

val begin_auction_p :
  t ->
  keyword:int ->
  ?snapshot:int array ->
  unit ->
  int * int array
(** Start an auction on [keyword]: tick its clock, snapshot every
    participant's spend (one atomic read each), apply the deferred
    cross-keyword effects locally (re-seats / retirements for advertisers
    whose spend moved), then run the per-auction bid adjustments against
    the snapshot and the new keyword time.  Returns
    [(keyword_time, snapshot)]; the snapshot array is an internal buffer,
    valid until the keyword's next call — copy it to persist (the engine
    stores a copy in the commit summary).

    [snapshot] replays a recorded witness verbatim (strict: its length
    must match the keyword's buffer).  Flat fleets additionally apply
    scheduled churn ({!State_store.set_on_tick}) right after the tick,
    before the snapshot. *)

val record_win_p :
  t -> adv:int -> keyword:int -> price:int -> clicked:bool -> unit
(** Outcome notification on the partitioned path: a clicked win charges
    the advertiser's atomic spend cell and bumps its keyword-local
    gained/spent tallies.  No re-seat happens here — every keyword
    (including this one) observes the spend change in its own next
    auction's snapshot. *)
