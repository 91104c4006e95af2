(** One advertiser's ROI-equalizing bidding state — the native (compiled)
    form of the Section II-C strategy, as benchmarked in Section V.

    The advertiser tracks, per keyword: its value per click, a maximum bid,
    the current bid, and the value gained / amount spent so far (whose
    ratio is the keyword's ROI).  Globally it tracks total spend and a
    target spending rate.  On each auction for a keyword it is interested
    in, the bid moves by one cent toward spending the target rate:

    - underspending ([amtSpent < target × time]) and [bid < maxbid] →
      [bid + 1];
    - overspending ([amtSpent > target × time]) and [bid > 0] → [bid - 1];
    - otherwise unchanged.

    The spend-rate comparisons are defined in the multiplied form
    [float amtSpent <> target × float time] — the logical-update machinery
    ({!Roi_fleet}) computes its trigger times against exactly this
    predicate, which is what makes the two execution strategies
    bit-identical.

    Money is integer cents throughout; [time] is the global auction
    counter (a shared monotone variable, per Section IV-B). *)

type t

val create :
  values:int array -> ?maxbids:int array -> ?initial_bids:int array ->
  ?premiums:int array -> ?budget:int -> target_rate:float -> unit -> t
(** [values.(kw)] is the advertiser's value per click on keyword [kw].
    [maxbids] defaults to [values]; [initial_bids] defaults to [maxbids]
    halved (rounded up, capped at maxbid).  [target_rate] is cents per
    auction, must be > 0.  [budget] is the total spend cap in cents
    (the paper's "daily budget" bid parameter); once [amt_spent] reaches
    it, every bid drops to 0 and stays there.  Default: unlimited.
    [premiums.(kw)] is a static extra per-click amount the advertiser pays
    when shown in the top slot for keyword [kw] — the Section II-C boot
    seller's bid on [Click ∧ Slot1].  Default: all zero.
    @raise Invalid_argument on negative entries, bid bounds violations, or
    a non-positive target rate. *)

val num_keywords : t -> int
val value : t -> keyword:int -> int
val maxbid : t -> keyword:int -> int
val bid : t -> keyword:int -> int
val amt_spent : t -> int
val target_rate : t -> float

val premium : t -> keyword:int -> int
(** The advertiser's [Click ∧ Slot1] premium for the keyword (static). *)

val budget : t -> int option

val exhausted : t -> bool
(** [amt_spent >= budget]. *)

val exhausted_at : t -> amt:int -> bool
(** [exhausted_at t ~amt] is the exhaustion predicate evaluated against a
    caller-supplied spend reading — the partitioned mode classifies
    against its per-auction spend {e snapshot}, not the live cell, so the
    decision is reproducible from the recorded snapshot. *)

val gained : t -> keyword:int -> int
val spent : t -> keyword:int -> int

val roi : t -> keyword:int -> float
(** [gained / spent]; [infinity] if nothing spent but something gained,
    [0.] if neither. *)

type direction = Inc | Dec | Stay

val classify :
  budget:int option -> amt_spent:int -> target_rate:float -> time:int ->
  bid:int -> maxbid:int -> direction
(** The canonical bid-adjustment predicate (shared with {!Roi_fleet}):
    [Stay] whenever the budget is exhausted, otherwise the spend-rate /
    bound logic of the module description. *)

val on_auction : t -> time:int -> keyword:int -> unit
(** Apply the bid adjustment for an auction on [keyword] at [time]. *)

val charge : t -> price:int -> int
(** [charge t ~price] atomically adds [price] to the cross-keyword
    [amt_spent] cell and returns the post-charge total.  Safe to call from
    concurrent keyword lanes.
    @raise Invalid_argument if [price < 0]. *)

val note_win_kw : t -> keyword:int -> price:int -> unit
(** Keyword-local half of a clicked win: bump [spent_by]/[gained_by] for
    [keyword] only.  Combined with {!charge} this decomposes
    {!record_win} into its cross-keyword and keyword-local parts; unlike
    {!record_win} it performs {e no} global bid retirement — the
    partitioned fleet applies retirement lazily, per keyword, from spend
    snapshots. *)

val record_win :
  t -> keyword:int -> price:int -> clicked:bool -> unit
(** Outcome notification for an auction the advertiser won: if [clicked],
    it pays [price] and gains its click value on [keyword]; an unclicked
    impression costs nothing (pay-per-click).
    @raise Invalid_argument if [price < 0]. *)

val restore :
  values:int array -> maxbids:int array -> bids:int array ->
  gained_by:int array -> spent_by:int array -> premiums:int array ->
  target_rate:float -> budget:int option -> amt_spent:int -> t
(** Rebuild an advertiser mid-run from persisted field values — the
    state-store snapshot decoder's constructor.  Unlike {!create} it
    places no bounds relation between [bids] and [maxbids] beyond array
    shapes (a retired bid of 0 over a positive maxbid, or an adjusted
    bid, are both legitimate mid-run states); all arrays are copied.
    @raise Invalid_argument on mismatched array lengths, an empty
    keyword set, a non-positive target rate, or negative spend. *)

val copy : t -> t
(** Deep copy (used by the equivalence tests to fork timelines). *)

val equal : t -> t -> bool
