(** The partitioned state seam: what is keyword-local and what is not.

    The ROI fleet's mutable state splits cleanly along the keyword axis —
    bids, adjustment lists, triggers and the auction clock are all
    per-keyword — except for two scalars per advertiser: total spend
    ([amt_spent]) and its budget.  This module makes that split explicit
    for the partitioned execution mode:

    - each keyword gets its own monotone auction {e clock} (the serial
      engine's single global clock, decomposed), advanced only by the lane
      that owns the keyword;
    - each keyword gets a reusable spend {e snapshot} buffer: at the start
      of one of its auctions, every participant's atomic [amt_spent] cell
      is read once into the buffer, and every decision in that auction
      (classification, retirement, trigger arming) consumes the snapshot,
      never the live cells.  The auction's outcome is therefore a pure
      function of keyword-local state plus the snapshot — which is what
      makes a recorded snapshot sufficient to replay the auction
      bit-for-bit;
    - charges go through the advertisers' atomic cells, the only
      cross-keyword writes in the system.

    Two layouts share this seam:

    - {e dense} ({!create}): one shared {!Roi_state.t} per advertiser and
      length-[n] snapshot buffers — every advertiser participates on every
      keyword.  The paper's toy shape.
    - {e flat} ({!create_flat}): per keyword, only the advertisers that bid
      on it, in preallocated slot-indexed SoA arrays with a free-list for
      bidder arrival/departure ({!flat_enroll}/{!flat_retire}).  Snapshot
      buffers are participant-local (length = partition capacity), so
      memory and per-auction work scale with total participation, not
      [keywords × advertisers].  The flat layout carries the whole auction
      step itself ({!flat_begin_auction}/{!flat_record_win}), mirroring the
      dense fleet's [begin_auction_p]/[record_win_p] bit-for-bit.

    Keyword-partitioned concurrency discipline: a keyword's clock,
    snapshot buffer and (flat) partition arrays have exactly one owning
    lane; the spend cells are shared and atomic.  No locks anywhere. *)

type t

val create : Roi_state.t array -> num_keywords:int -> t
(** Dense layout; shares (does not copy) the advertiser states.
    @raise Invalid_argument on an empty fleet or [num_keywords < 1]. *)

val create_flat :
  num_keywords:int ->
  n:int ->
  budgets:int array ->
  targets:float array ->
  unit ->
  t
(** Flat layout over [n] advertisers and [num_keywords] empty partitions.
    [budgets.(adv)] is the advertiser's budget, [-1] for unbudgeted;
    [targets.(adv)] its ROI target rate (must be positive).  Populate with
    {!flat_enroll}.
    @raise Invalid_argument on bad sizes or a non-positive target. *)

val num_keywords : t -> int

val is_flat : t -> bool

val flat_n : t -> int
(** Number of advertisers in a flat store.
    @raise Invalid_argument on a dense store (like all [flat_*] below). *)

val time : t -> keyword:int -> int
(** The keyword's local auction clock (0 before its first auction). *)

val epoch_of : t -> keyword:int -> int
(** The keyword's monotone {e dirty epoch}: bumped by every mutation that
    can change the keyword's next evaluation inputs — bid moves and
    retirement transitions in {!flat_begin_auction}, {!flat_enroll} /
    {!flat_retire} (churn included: the {!set_on_tick} hook goes through
    them).  A dense store's epoch stays 0: the dense fleet counts its own
    list placements and adjustments ([Roi_fleet.epoch_of]).  Two equal
    reads bracket a window in which a repeat auction on the keyword is
    guaranteed to rank, assign and price identically — the validity test
    for the engine's per-keyword evaluation cache.  Spend drift (charges,
    from this keyword's clicks or any other's) is deliberately not
    counted directly: a charge can only affect evaluation through a
    begin-pass classify step, which runs before every auction and bumps
    the epoch iff a bid actually moves.  Single-owner read, like
    {!tick}. *)

val tick : t -> keyword:int -> int
(** Advance the keyword's clock and return the new time.  Single-owner:
    only the lane owning [keyword] may call this. *)

val snapshot : t -> keyword:int -> ?override:int array -> unit -> int array
(** Fill and return the keyword's spend-snapshot buffer: one atomic read
    of every participant's [amt_spent] (or a blit of [override] when
    replaying a recorded snapshot).  Dense: indexed by advertiser id,
    length [n].  Flat: indexed by partition slot, length = partition
    capacity (free slots read 0).  The returned array is the internal
    buffer — valid until the keyword's next [snapshot]; copy it to
    persist.  Single-owner, like {!tick}. *)

val spend : t -> adv:int -> int
(** Live (atomic) read of one advertiser's total spend. *)

val charge : t -> adv:int -> price:int -> int
(** Atomically add [price] to the advertiser's spend; returns the
    post-charge total.  Safe from any lane. *)

(** {1 Flat partitions} *)

val flat_enroll :
  t ->
  keyword:int ->
  adv:int ->
  value:int ->
  maxbid:int ->
  bid:int ->
  premium:int ->
  unit
(** Add an advertiser to a keyword's partition, reusing a free-list slot
    when one exists (arrays double otherwise).  Keyword-local tallies
    start at zero.  Single-owner per keyword.
    @raise Invalid_argument if already enrolled or on invalid parameters. *)

val flat_retire : t -> keyword:int -> adv:int -> unit
(** Remove an advertiser from a keyword's partition; its slot is zeroed
    and pushed on the free-list for reuse.  Single-owner per keyword.
    @raise Invalid_argument if not enrolled. *)

val flat_slot : t -> keyword:int -> adv:int -> int option
(** The advertiser's local slot in the keyword's partition, if enrolled. *)

val flat_member : t -> keyword:int -> adv:int -> bool

val flat_bid : t -> keyword:int -> adv:int -> int
(** Current keyword-local bid (0 if not enrolled). *)

val flat_premium : t -> keyword:int -> adv:int -> int
(** Slot-0 brand premium on this keyword (0 if not enrolled). *)

val flat_budget : t -> adv:int -> int option

val flat_target : t -> adv:int -> float

val set_on_tick : t -> (keyword:int -> time:int -> unit) option -> unit
(** Install the deterministic churn hook: invoked by
    {!flat_begin_auction} right after the clock tick and {e before} the
    snapshot, with the keyword and its new local time.  Because the hook
    is a pure function of [(keyword, time)] given the same seed,
    rebuilding the store and hook replays the same membership at every
    keyword-local time — churn needs no logging to replay. *)

type flat_view = {
  fv_members : int array;  (** slot -> advertiser id, [-1] = free slot *)
  fv_bids : int array;
  fv_premiums : int array;
  fv_values : int array;
  fv_len : int;  (** slots [0..fv_len-1] are allocated-or-freed *)
  fv_live : int;  (** members with id >= 0 *)
}
(** Zero-copy view of a keyword's partition arrays (engine read path).
    Valid until the next enroll/retire on the keyword. *)

val flat_view : t -> keyword:int -> flat_view

type flat_stats = {
  fs_capacity : int;
  fs_len : int;
  fs_live : int;
  fs_free : int;
}

val flat_stats : t -> keyword:int -> flat_stats
(** Allocation counters for the free-list invariant tests:
    [fs_len = fs_live + fs_free] and [fs_capacity >= fs_len] always. *)

val flat_capacity : t -> keyword:int -> int
(** [(flat_stats t ~keyword).fs_capacity] without the record: the
    engine sizes a keyword's slot-indexed scratch by it on every
    auction. *)

val flat_begin_auction :
  t ->
  keyword:int ->
  ?override:int array ->
  unit ->
  int * int array
(** One pre-auction step on a flat partition, mirroring the dense fleet's
    [begin_auction_p]: tick the keyword clock, apply scheduled churn
    ({!set_on_tick}), fill the spend snapshot, then per live slot either
    retire the bidder locally (budget exhausted at the snapshot: bid to 0,
    once) or apply the ROI [classify] step (under budget pace and below
    maxbid: bid+1; over pace and positive: bid-1).  Returns
    [(keyword_time, snapshot)]; the snapshot is the internal slot-indexed
    buffer — copy to persist.

    [override] replays a recorded snapshot verbatim (strict length =
    partition capacity).  Single-owner per keyword. *)

val flat_record_win :
  t -> adv:int -> keyword:int -> price:int -> unit
(** A clicked win: atomically charge the advertiser's spend cell and bump
    the keyword-local value-gained / amount-spent tallies (skipped if the
    advertiser has departed the partition — the charge still lands). *)

val flat_tick_rng :
  t -> keyword:int -> init:(unit -> Essa_util.Rng.t) -> Essa_util.Rng.t
(** The keyword's store-owned tick RNG (the churn hook's per-keyword
    stream), created with [init] on first use.  Owned by the store so
    {!encode} captures its position: a store decoded mid-run resumes the
    exact churn schedule instead of restarting the stream.
    @raise Invalid_argument on a dense store. *)

(** {1 Durability snapshots}

    A binary image of the whole store — both layouts — written with
    {!Essa_util.Bincode}.  The image is precise enough for bit-identical
    continuation: partition capacities (observable through the
    spend-snapshot witness length), free-list order (slot reuse under
    churn), deferred-retirement flags and tick-RNG positions are all
    captured.  Transient caches (spend-snapshot validity) are dropped
    and rebuilt on first use. *)

val encode : ?bid:(adv:int -> keyword:int -> int) -> t -> Buffer.t -> unit
(** Serialize the store (clocks, epochs, charge clock, layout).  [bid]
    overrides the per-(advertiser, keyword) bid written for a {e dense}
    store — the logical fleet keeps its live bids in adjustment lists,
    so the caller passes the fleet's effective-bid reader and the
    decoded states start from the observable bid vector.  Ignored for
    flat stores (partition arrays are already authoritative).  Call at a
    quiescent point (no lane mid-auction). *)

type snapshot
(** A decoded store image. *)

val decode : Essa_util.Bincode.reader -> snapshot
(** Decode an image produced by {!encode}, consuming exactly its bytes.
    @raise Essa_util.Bincode.Truncated on malformed or short input. *)

val snapshot_is_flat : snapshot -> bool
val snapshot_num_keywords : snapshot -> int

val dense_states : snapshot -> Roi_state.t array
(** The restored advertiser states of a dense image (ownership
    transferred — feed them to an engine constructor, which rebuilds the
    fleet's derived structures from them).  The store meta (clocks,
    epochs, charge clock) is {e not} in the states: apply it to the
    rebuilt store with {!apply_meta}.
    @raise Invalid_argument on a flat snapshot. *)

val of_snapshot_flat : snapshot -> t
(** The fully-restored flat store of a flat image, meta included.
    Re-attach the churn hook ({!set_on_tick}) before serving; the
    tick-RNG positions are already restored.
    @raise Invalid_argument on a dense snapshot. *)

val apply_meta : snapshot -> t -> unit
(** Overwrite [store]'s keyword clocks, dirty epochs and charge clock
    with the snapshot's — the final restore step for a dense store
    rebuilt via {!dense_states} + a fleet constructor.
    @raise Invalid_argument on a keyword-count mismatch. *)
