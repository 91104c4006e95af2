(** The per-keyword commit contract, enforced.

    Per-keyword commits give up the single global stream, so
    "deterministic" needs a new operational meaning.  This module is it:
    every committed summary carries the spend snapshot its auction read
    ({!Essa.Engine.summary.spend_snapshot}), and a served run passes the
    check when

    - {b replay determinism}: re-executing each keyword's commit log, in
      its recorded order, on a {e fresh} partitioned engine built with the
      same parameters — forcing each auction's recorded degrade tier and
      adopting its recorded snapshot — reproduces every summary
      bit-for-bit (assignment, prices, clicks, revenue, keyword clock,
      snapshot);
    - {b clock monotonicity}: each keyword's [auction_time] values are
      strictly increasing;
    - {b spend conservation}: Σ clicked prices in the log = the served
      engine's total revenue = the replayed engine's = Σ final advertiser
      [amt_spent], on both engines (clicks are the only thing that moves
      money);
    - {b budget admission}: no premium-free clicked winner's recorded
      snapshot was at or past its budget (an exhausted advertiser can
      only be admitted via a slot-1 premium, whose weight survives bid
      retirement; even the serial engine lets the {e final} click
      overshoot, so admission — not the final balance — is the invariant).

    The check is meaningful on fault-free runs: a lane failure loses its
    summary (committed without one), which breaks conservation by
    construction — exactly what the report should say. *)

type mismatch = {
  keyword : int;
  position : int;  (** 0-based index into the keyword's commit log *)
  field : string;  (** which summary field differed *)
}

type report = {
  auctions_checked : int;
  replay_ok : bool;  (** every summary reproduced bit-for-bit *)
  mismatches : mismatch list;
  clocks_monotone : bool;
  spend_conserved : bool;
  budgets_respected : bool;
  log_revenue : int;  (** Σ clicked prices over the whole log *)
  served_revenue : int;
  replayed_revenue : int;
}

val ok : report -> bool
(** All four verdicts at once. *)

val check :
  served:Essa.Engine.t ->
  fresh:Essa.Engine.t ->
  log:Essa.Engine.summary list array ->
  report
(** [served] is the engine that ran the log (stopped: read after
    {!Server.stop}); [fresh] must be an unused partitioned engine built
    with the same parameters and seeds; [log.(kw)] is keyword [kw]'s
    commit log in commit order.  [fresh] is consumed (it replays the whole
    log).
    @raise Invalid_argument if [fresh] is serial or already ran, or the
    log is not sized to the keyword universe. *)

val check_server : Server.t -> fresh:Essa.Engine.t -> report
(** Convenience: pull the per-keyword commit logs out of a stopped
    server and {!check} them against [fresh]. *)
