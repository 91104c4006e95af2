(** The pluggable auction-mechanism interface (ROADMAP item 4).

    An auction {e mechanism} is the pair (winner determination, pricing)
    plus its degraded fallback: everything about an auction that decides
    {e who wins which slot at what per-click price}, as opposed to the
    orchestration the engine keeps — click sampling, billing, the
    evaluation cache, bid-update decimation, deadlines, WAL snapshots
    and metrics.  Implementations are first-class modules of
    signature {!S}; the engine stores one and calls it through two phase
    hooks, so the phase latency histograms
    ([essa.auction.phase.winner_determination_ns] / [pricing_ns]) keep
    their meaning for every mechanism.

    Three implementations ship:

    - {!Mech_classic} — the paper's matching + GSP/VCG/pay-as-bid path,
      re-expressed through this interface {e bit-identically} (same
      assignments, prices, and [essa.ta.*] / reduction counters as the
      pre-refactor engine; pinned by the property suites);
    - {!Stable_match} — Aggarwal–Muthukrishnan–Pál's general auction:
      a stable matching computed by an ascending (1-cent increment)
      auction, supporting per-slot max-price constraints;
    - {!Reserve} — Iyengar–Kumar optimal auctions: GSP/VCG with
      per-keyword reserve prices ([`Fixed] floors or the empirical
      [`Monopoly] revenue-maximizing reserve recomputed from the current
      bids), reserve-aware pricing and unfilled-slot semantics.

    Contract every implementation must honour (it is what makes the
    engine's cache/decimation/replay machinery mechanism-agnostic):
    {ul
    {- [winner_determination] and [price] are {e pure functions} of the
       fleet's keyword-local state (bids, premiums, live membership) and
       the static [ctx] — no RNG, no clocks, no hidden mutable state
       beyond the per-auction [scratch].  This is what lets the engine
       cache a completed evaluation against the keyword's dirty epoch,
       serve it on hits, replay it from a WAL witness, and freeze it
       across a decimation window.}
    {- Per-auction access statistics go through the [scratch] tallies
       ([wd_*] fields) {e and} the shared counters, so the cache can
       re-report a cold run's counters bit-for-bit on hits.}
    {- [cheap] is the deadline-degradation tier: one cheap pass, prices
       that are safe to bill (never below the floor), no promise of
       incentive properties.}} *)

type method_ = [ `Lp | `Lp_dense | `H | `Rh | `Rhtalu ]
type pricing = [ `Gsp | `Vcg | `Pay_as_bid ]

(** Per-auction mutable workspace, owned by whoever runs the auction (the
    serial engine, or one keyword partition).  See the field comments in
    the implementation; the [wd_*] tallies are the per-auction access
    statistics the evaluation cache stores with an entry. *)
type scratch = {
  w_buffer : float array array;
  stamp : int array;
  mutable stamp_token : int;
  local_of : int array;
  reduced_advs : int array;
  reduced_w_rows : float array array;
  ta_seen : int array;
  mutable ta_token : int;
  tk_ids : int array;
  tk_scores : float array;
  tk_slots : int array;
  ta_eff : float array;
  mutable wd_ta_sorted : int;
  mutable wd_ta_random : int;
  mutable wd_ta_seen : int;
  mutable wd_reduced : int;
}

val make_scratch : n:int -> k:int -> with_w:bool -> flat:bool -> scratch
(** [n] is the index space of the stamp arrays: the fleet size on dense
    engines, the keyword partition's capacity on [flat] ones.
    [reduced_w_rows] holds [min n (k·(k+1))] rows of [k] on dense
    engines (the reduced matrix) and [n] rows on flat ones: one row of
    scores per partition slot, filled once per auction by
    {!flat_winner_determination} and read by its selection, its
    Hungarian solve and {!gsp_from_top_flat}.  The two sizes agree
    whenever [n <= k·(k+1)]. *)

val needs_w : method_ -> bool
(** Whether the classic mechanism's winner determination materializes the
    full n × k weight matrix for the method: the naive methods ([`Lp],
    [`Lp_dense], [`H]) do; [`Rh] computes slot scores on the fly
    ({!rh_top_lists}), so cache misses never leave the reduced lists, and
    [`Rhtalu] never does. *)

(** The mechanism-visible view of an engine: static instance data, the
    fleet, and the shared access-statistic counters.  Built once at
    engine construction; flat engines leave the dense side structures
    ([ctr_ids] .. [prem_vals]) empty. *)
type ctx = {
  x_method : method_;
  x_n : int;
  x_k : int;
  x_reserve : int;  (** the engine-wide per-click floor, cents *)
  x_ctr : float array array;
  x_ctr_ids : int array array;
  x_ctr_vals : float array array;
  x_ctr_cols : float array array;
  x_premiums : int array array;
  x_prem_ids : int array array;
  x_prem_vals : float array array;
  x_fleet : Essa_strategy.Roi_fleet.t;
  x_is_flat : bool;
  x_c_ta_sorted : Essa_obs.Counter.t;
  x_c_ta_random : Essa_obs.Counter.t;
  x_c_ta_seen : Essa_obs.Counter.t;
  x_c_reduced : Essa_obs.Counter.t;
}

(** The pricing view a winner determination hands to the pricing step:
    the data pricing needs, in the index space it was computed in. *)
type view =
  | Full of float array array
      (** the full n × k weight matrix (naive methods) *)
  | Reduced of {
      advertisers : int array;  (** reduced row → global advertiser id *)
      w : float array array;    (** reduced weight rows *)
      top : (int * float) list array;  (** per-slot top-(k+1) lists *)
    }  (** the RH/RHTALU reduced view; exact for GSP and VCG *)
  | Flat_top of int array
      (** flat engines: each ad slot's winner as a partition slot ([-1]
          when empty); the scores stay in the scratch's score rows, which
          the same auction's [price] reads *)
  | Priced of int array
      (** mechanisms whose winner determination already prices the
          outcome (stable matching: prices are the auction's fixed
          point); [price] returns this array verbatim *)

type eval = { e_assignment : Essa_matching.Assignment.t; e_view : view }

(** An auction mechanism.  [winner_determination] must call
    {!reset_wd_stats} first (the engine stores the scratch tallies with
    the cache entry afterwards); [price] may rely on scratch state left
    by the same auction's [winner_determination] (e.g. [local_of]). *)
module type S = sig
  val name : string

  val winner_determination : ctx -> scratch -> keyword:int -> eval

  val price : ctx -> scratch -> keyword:int -> eval -> int array
  (** Per-slot per-click prices for [eval]'s assignment (0 for empty
      slots). *)

  val cheap : ctx -> keyword:int -> Essa_matching.Assignment.t * int array
  (** The deadline-degraded single-pass tier. *)
end

val reset_wd_stats : scratch -> unit

(** {2 Shared kernels}

    The building blocks the classic mechanism is made of, exported so
    other mechanisms (e.g. {!Reserve}) can reuse them with a different
    effective floor: every kernel takes the per-click [reserve] floor
    explicitly, and passing [ctx.x_reserve] reproduces the engine's
    historical behaviour bit-for-bit. *)

val fill_weights : ctx -> scratch -> reserve:int -> keyword:int -> float array array
(** Full expected-revenue matrix w(i,j) = ctr(i,j) · bid_i (slot 1 adds
    the Click∧Slot1 premium; sub-[reserve] bids get an all-zero row). *)

val rh_top_lists :
  ctx -> scratch -> reserve:int -> keyword:int -> count:int ->
  (int * float) list array
(** Per-slot top-[count] lists by direct scan with on-the-fly scores —
    the same float expressions as {!fill_weights} fed through the same
    {!Essa_matching.Reduction.scan_top} kernel, so the lists are
    bit-identical to scanning a materialized matrix, without ever
    building one (the [`Rh] cache-miss fast path). *)

val ta_top_lists :
  ctx -> scratch -> reserve:int -> keyword:int -> count:int ->
  (int * float) list array
(** Per-slot top-[count] lists via the threshold algorithm over the
    fleet's maintained sorted lists (the [`Rhtalu] path); access
    statistics go to the shared counters and the scratch tallies. *)

val reduced_from_top :
  ctx -> scratch -> reserve:int -> keyword:int ->
  (int * float) list array -> int array * float array array
(** Dedupe the top lists into the reduced pricing view: candidate ids
    (ascending) and their refilled weight rows. *)

val gsp_from_top :
  ctx -> scratch -> reserve:int ->
  assignment:Essa_matching.Assignment.t ->
  top:(int * float) list array -> int array
(** GSP runner-up prices from the reduced top lists, floored at
    [reserve] (dense engines; stamps winners in the scratch). *)

val cheap_allocation :
  ctx -> reserve:int -> keyword:int ->
  Essa_matching.Assignment.t * int array
(** The degraded tier, dense form: greedy top-k by slot-1 expected
    revenue, pay-as-bid prices floored at [reserve]. *)

val flat_winner_determination :
  ctx -> scratch -> reserve:int -> keyword:int ->
  Essa_matching.Assignment.t * int array
(** Flat-store winner determination.  Scores every live member of the
    keyword's partition once into the scratch's score rows, takes as
    candidates the union of the slots' top-(k+1) lists (canonical order:
    score descending, global id ascending) and runs the Hungarian method
    on them in ascending global-id order.  With [live] members and
    [m = live - (k+1)], the candidates are every live member when
    [m <= 0]; when [0 < m < k+1], every member that is not among the
    bottom [m] of all [k] slots (the complement of the top lists); and
    otherwise the per-slot top-(k+1) insertion scans.  Returns the
    assignment (global advertiser ids) and each ad slot's winner as a
    partition slot ([-1] when empty). *)

val gsp_from_top_flat :
  ctx -> scratch -> reserve:int -> keyword:int ->
  assignment:Essa_matching.Assignment.t -> winners:int array -> int array
(** GSP runner-up prices after {!flat_winner_determination} on the same
    scratch: the runner-up of an ad slot is the best live non-winner on
    its score column, which is the first non-winner of the slot's
    top-(k+1) list; prices are floored at [reserve]. *)

val cheap_allocation_flat :
  ctx -> reserve:int -> keyword:int ->
  Essa_matching.Assignment.t * int array
(** The degraded tier over a flat partition's live slots. *)
