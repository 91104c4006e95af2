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
    serial engine, or one keyword partition), indexed by keyword-view
    slot (see {!keyword_view}).  See the field comments in the
    implementation; the [wd_*] tallies are the per-auction access
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
  ta_eff : float array;
  tk_ids : int array;
  tk_scores : float array;
  tk_slots : int array;
  mutable dense_ids : int array;
  mutable dense_bids : int array;
  mutable wd_ta_sorted : int;
  mutable wd_ta_random : int;
  mutable wd_ta_seen : int;
  mutable wd_reduced : int;
}

val make_scratch : method_:method_ -> n:int -> k:int -> scratch
(** [n] is the number of keyword-view slots: the fleet size on dense
    engines, the keyword partition's capacity on flat ones.  The method
    sizes the rest.  Every method but [`Rhtalu] scores each view slot on
    each ad slot once per auction, into [w_buffer] (n rows of [k]):
    the naive methods hand that matrix to their solver, and [`Rh] selects
    its candidates from it ({!rh_winner_determination}).  [`Rhtalu] never
    scores every advertiser: it gets the threshold algorithm's buffers
    ([ta_seen], [ta_eff], n each) and [min n (k·(k+1))] reduced rows
    instead.  A dense keyword view's id and bid buffers ([dense_ids],
    [dense_bids]) are made on the first dense view the scratch serves. *)

(** The mechanism-visible view of an engine: static instance data, the
    fleet, and the shared access-statistic counters.  Built once at
    engine construction; flat engines leave the dense side structures
    ([ctr_ids] .. [prem_vals]) empty and run [`Rh].  Nothing here names
    the store layout: a mechanism reads a keyword through
    {!keyword_view}. *)
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
  x_c_ta_sorted : Essa_obs.Counter.t;
  x_c_ta_random : Essa_obs.Counter.t;
  x_c_ta_seen : Essa_obs.Counter.t;
  x_c_reduced : Essa_obs.Counter.t;
}

(** One keyword's bidders as the mechanisms read them: [kv_len] view
    slots, of which [kv_live] are live.  Slot [i] is live when
    [kv_ids.(i) >= 0]; it holds that advertiser's current bid and slot-1
    premium.  A flat partition's view is its own slot arrays (free slots
    hold [-1]); a dense fleet's is the identity over its n advertisers,
    all live, with the bids read into the scratch. *)
type keyword_view = {
  kv_ids : int array;    (** view slot → advertiser id, [-1] when free *)
  kv_bids : int array;   (** effective bid, cents *)
  kv_prems : int array;  (** Click∧Slot1 premium, cents *)
  kv_len : int;
  kv_live : int;
}

val keyword_view : ctx -> scratch -> keyword:int -> keyword_view
(** The keyword's view: the one function of the mechanism layer that
    knows the store layout.  A dense view aliases the scratch's buffers,
    so it is valid until the next view built on the same scratch. *)

val live_slots : keyword_view -> int array
(** The view's live slots, ascending. *)

(** The pricing view a winner determination hands to the pricing step:
    the data pricing needs, in the index space it was computed in. *)
type view =
  | Full of float array array
      (** the full n × k weight matrix (naive methods) *)
  | Reduced of {
      advertisers : int array;  (** reduced row → global advertiser id *)
      w : float array array;    (** reduced weight rows *)
      top : (int * float) list array;  (** per-slot top-(k+1) lists *)
    }  (** the RHTALU reduced view; exact for GSP and VCG *)
  | Scored of {
      kv : keyword_view;  (** the view the auction ran on *)
      winners : int array;
          (** each ad slot's winner as a view slot ([-1] when empty) *)
      w : float array array;
          (** the candidates' score rows, in ascending id order *)
    }  (** the RH view; exact for GSP and VCG *)
  | Priced of int array
      (** mechanisms whose winner determination already prices the
          outcome (stable matching: prices are the auction's fixed
          point); [price] returns this array verbatim *)

type eval = { e_assignment : Essa_matching.Assignment.t; e_view : view }

(** An auction mechanism.  [winner_determination] must call
    {!reset_wd_stats} first (the engine stores the scratch tallies with
    the cache entry afterwards); [price] may rely on scratch state left
    by the same auction's [winner_determination] (e.g. [local_of], or
    the bids a {!Scored} view aliases). *)
module type S = sig
  val name : string

  val winner_determination : ctx -> scratch -> keyword:int -> eval

  val price : ctx -> scratch -> keyword:int -> eval -> int array
  (** Per-slot per-click prices for [eval]'s assignment (0 for empty
      slots). *)

  val cheap :
    ctx -> scratch -> keyword:int -> Essa_matching.Assignment.t * int array
  (** The deadline-degraded single-pass tier. *)
end

val reset_wd_stats : scratch -> unit

(** {2 Shared kernels}

    The building blocks the classic mechanism is made of, exported so
    other mechanisms (e.g. {!Reserve}) can reuse them with a different
    effective floor: every kernel takes the per-click [reserve] floor
    explicitly, and passing [ctx.x_reserve] reproduces the engine's
    historical behaviour bit-for-bit.  [`Rh] runs
    {!rh_winner_determination} and {!gsp_from_candidates} on either store
    layout; [`Rhtalu] runs {!ta_top_lists}, {!reduced_from_top} and
    {!gsp_from_top}; the naive methods price the matrix of
    {!fill_weights}; every method degrades to {!cheap_allocation}. *)

val fill_weights : ctx -> scratch -> reserve:int -> keyword:int -> float array array
(** Full expected-revenue matrix w(i,j) = ctr(i,j) · bid_i (slot 1 adds
    the Click∧Slot1 premium; sub-[reserve] bids get an all-zero row), in
    the scratch's [w_buffer]. *)

val rh_winner_determination :
  ctx -> scratch -> reserve:int -> keyword_view -> eval
(** The RH kernel.  Scores every live slot of the view once into the
    scratch's score rows, takes as candidates the union of the slots'
    top-(k+1) lists ({!Essa_matching.Reduction.select}, canonical order:
    score descending, id ascending) and runs the Hungarian method on
    them in ascending id order.  With [live] members and
    [m = live - (k+1)], the candidates are every live member when
    [m <= 0]; when [0 < m < k+1], every member that is not among the
    bottom [m] of all [k] slots (the complement of the top lists); and
    otherwise the per-slot top-(k+1) selections.  Returns the assignment
    (advertiser ids) with its {!Scored} view; each candidate's row index
    is left in the scratch's [local_of], by view slot. *)

val gsp_from_candidates :
  ctx -> scratch -> reserve:int ->
  assignment:Essa_matching.Assignment.t -> winners:int array ->
  w:float array array -> int array
(** GSP runner-up prices after {!rh_winner_determination} on the same
    scratch: the runner-up of an ad slot is the best non-winner on its
    column among the candidates [w], which is the first non-winner of
    the slot's top-(k+1) list; prices are floored at [reserve]. *)

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
    [reserve] (stamps winners in the scratch). *)

val cheap_allocation :
  ctx -> scratch -> reserve:int -> keyword:int ->
  Essa_matching.Assignment.t * int array
(** The degraded tier: greedy top-k of the keyword view's live slots by
    slot-1 expected revenue, pay-as-bid prices floored at [reserve]. *)
