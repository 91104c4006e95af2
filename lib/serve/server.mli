(** The keyword-sharded auction server: bounded ingress → batcher →
    shard-affine lanes → per-keyword commit, under lane supervision.

    A [t] owns one {e partitioned} {!Essa.Engine.t} ([Engine.create
    ~partitioned:true] or [Engine.create_flat]) and a standing fleet of
    domains: one batcher and [workers] lane domains.  Producers {!submit}
    queries (non-blocking; overload is shed — see {!Ingress}); the
    batcher drains the ingress queue in arrival order, groups each batch
    by keyword shard ({!Shard}) and hands every lane its keywords'
    queries; lanes execute {!Essa.Engine.run_partitioned} in their queue
    order and count each commit in the {!Commit_ledger}.  The serial
    engine, whose one global clock couples every keyword, is the paper's
    measurement loop ({!Essa.Engine.run_auction}) and is not served.

    {b Determinism contract}: one stream {e per keyword}.  Each keyword's
    auctions commit in that keyword's FIFO order with no cross-keyword
    wait.  Every committed summary records the spend snapshot its auction
    read, each keyword's summary log ({!commit_log}) is replayable
    bit-for-bit from those witnesses ({!Essa_serve.Replay}), and
    conservation invariants (Σ clicked prices = Σ advertiser spend;
    admission-time budget respect) hold across any lane interleaving.
    With one lane, work runs in arrival order, so the logs and the final
    engine state equal a one-domain [run_partitioned] loop over the same
    queries.

    {b Fault tolerance}: a lane whose execution raises (engine or
    [on_commit] exception) no longer poisons the fleet.  The supervisor
    records an {!error} report carrying the failing query, still counts
    that query's commit (the ledger never stalls), and applies the
    policy: restart the lane up to [max_restarts] times, then degrade it
    (remaining queries on that lane blind-commit, counted as [skipped],
    while the other lanes keep serving).  An optional per-auction
    deadline budget degrades slow auctions instead of letting them stall
    the stream (see {!Essa.Engine.degrade}); a degraded summary records
    its tier, so the replay contract still holds, but the stream is no
    longer the fault-free one and says so in its stats, counters and
    summaries.

    The in-flight window is bounded (at most one executing batch plus one
    staged batch beyond the ingress queue), so the ingress queue is the
    real backpressure surface: sustained overload fills it and sheds. *)

type t

type error = {
  lane : int;  (** the lane whose execution raised *)
  seq : int;  (** the failing query's arrival sequence number *)
  keyword : int;  (** the failing query's keyword *)
  exn : exn;
  backtrace : string;
}

type stats = {
  accepted : int;  (** queries admitted (all of them committed) *)
  shed : int;  (** queries rejected by the bounded ingress queue *)
  rejected_closed : int;  (** submissions after shutdown began *)
  committed : int;  (** sequence numbers committed (= accepted at stop) *)
  failed : int;  (** executions that raised; one {!error} each *)
  skipped : int;  (** blind-committed by a degraded lane *)
  degraded : int;  (** auctions degraded by the deadline budget *)
  lane_restarts : int;  (** supervisor restarts, summed over lanes *)
  revenue : int;  (** engine total revenue, cents *)
  lane_imbalance : float;
      (** (max-min)/max of per-lane committed counts (see {!Shard}) *)
  rebalances : int;
      (** keyword→lane map rebalances run ([~balance:true] only) *)
  killed : bool;
      (** a {!Fault.Kill_server} fault fired: execution stopped
          mid-stream and the WAL (if armed) holds the persisted prefix *)
  errors : error list;  (** every failure report, in commit order *)
}

val create :
  ?metrics:Essa_obs.Registry.t ->
  ?on_commit:(Essa.Engine.summary -> unit) ->
  ?queue_capacity:int ->
  ?max_batch:int ->
  ?max_restarts:int ->
  ?deadline_budget_ns:int ->
  ?faults:Fault.t ->
  ?commit:[ `Per_keyword ] ->
  ?balance:bool ->
  ?rebalance_every:int ->
  ?wal:Wal.writer ->
  ?wal_snapshot_every:int ->
  ?clock:(unit -> int64) ->
  workers:int ->
  engine:Essa.Engine.t ->
  unit ->
  t
(** Spawn the serving fleet over [engine] (ownership transferred: do not
    touch the engine until after {!stop}); it must be partitioned.
    [workers] is the lane count (>= 1; keep it below the core count in
    production — the batcher is an additional domain).
    [queue_capacity] (default 1024) bounds the ingress queue;
    [max_batch] (default 64) bounds one batch.  [on_commit] is invoked for every {e executed}
    auction (deadline-degraded ones included; failed and skipped queries
    deliver no summary) on the committing lane's domain.  It runs
    {e concurrently} from several lanes, in each keyword's FIFO order but
    with no cross-keyword order: it must be thread-safe, or you can ignore
    it and read the per-keyword {!commit_log} after {!stop}.  Keep it
    cheap; the lane waits for it.
    [max_restarts] (default 2) is the supervisor policy: failures a lane
    absorbs by restarting before it degrades ([essa.serve.lane_restarts]
    counts restarts, [essa.serve.lane_failures] failures,
    [essa.serve.lane_skipped] blind commits by degraded lanes).
    [deadline_budget_ns] arms per-auction deadlines at
    [enqueue_ns + budget] — queueing delay counts, so a stalled stream
    sheds its backlog's work instead of compounding the stall
    ([essa.serve.degraded] / [essa.serve.degraded_unfilled] count trips).
    [faults] arms the {!Fault} switchboard (default {!Fault.none}).
    [metrics] is the registry the pipeline gauges/counters/histograms
    register into (default: a fresh private one; the engine keeps its
    own unless you created it with this registry).
    [commit] has no effect: the per-keyword ledger is the only commit
    discipline.  The tag stays only for callers that still pass it.
    [balance] (default false) replaces the static modulo keyword→lane
    map with the load-aware {!Shard.map}: every [rebalance_every]
    (default 4) batches, at the quiescent point where the previous batch
    has fully committed and every lane is idle, the batcher folds the
    per-keyword executed counts into EWMAs and reassigns keywords —
    hot-head LPT plus power-of-two-choices (see {!Shard}).  Because
    ownership only changes between batches, per-keyword FIFO and the
    replay contract are untouched; only which lane serves a keyword
    shifts.  [stats.rebalances] counts epochs.
    [wal] arms crash durability: each lane appends a {!Wal} summary
    record at its commit point, and every
    [wal_snapshot_every] batches (default 8; 0 disables snapshots) the
    batcher appends an {!Essa.Engine.encode_state} snapshot record at
    the quiescent boundary where the previous batch has fully committed
    and no lane is mid-auction.  The writer stays owned by the caller
    (close it after {!stop}); {!Recovery.restore} rebuilds an engine
    from the directory.  The batcher times each snapshot (encode plus
    append) into [essa.wal.snapshot_ns], and {!stop} exports the
    writer's {!Wal.stats} accrued since [create] as the [essa.wal.*]
    counters.  A {!Fault.Kill_server} fault freezes the WAL at
    the kill point: the killed query and everything after blind-commit
    with no record, [stats.killed] is set, and the ingress closes so the
    run winds down — recovery then replays to the last commit and the
    driver resubmits the rest.
    [clock] stamps enqueue times and enqueue-to-commit latencies
    (default {!Essa_util.Timing.now_ns}) — the same injectable seam as
    [Engine.create]'s [?clock], so deterministic tests can drive the
    whole latency pipeline; note the engine's deadline ladder reads the
    {e engine's} clock, not this one.
    @raise Invalid_argument on [workers < 1], [queue_capacity < 1],
    [max_batch < 1], [max_restarts < 0], a non-positive budget, or a
    serial engine. *)

val submit : t -> keyword:int -> Ingress.outcome
(** Non-blocking admission of a query; [Shed] when the bounded queue is
    full, [Closed] after {!stop} began.  Safe from any domain.
    @raise Invalid_argument on a keyword outside the engine's universe
    (bad input is an error, not load to shed). *)

val accepted : t -> int
val shed : t -> int

val rejected_closed : t -> int
(** Submissions rejected because shutdown had begun (not overload). *)

val depth : t -> int

val committed : t -> int
(** Auctions committed so far (the ledger total, all keywords). *)

val commit_log : t -> keyword:int -> Essa.Engine.summary list
(** One keyword's committed summaries in commit (= that keyword's FIFO)
    order, with their [spend_snapshot] replay witnesses.  Single-writer
    while running — call after {!stop}.
    @raise Invalid_argument on a bad keyword. *)

val lane_restarts : t -> int array
(** Per-lane supervisor restart counts (index = lane).  Stable once
    {!stop} has returned; racy-but-tear-free reads while running. *)

val errors : t -> error list
(** Failure reports so far, in commit order.  Stable after {!stop}. *)

val await_committed : t -> count:int -> unit
(** Block until at least [count] auctions have committed. *)

val flush : t -> unit
(** Block until every query accepted before the call has committed. *)

val stop : t -> stats
(** Close the ingress queue, serve everything already accepted, join all
    domains and return the final tallies.  After [stop] the engine may be
    inspected again (final states, metrics).  Never raises on lane
    failure: the failures are in [stats.errors] (with their queries) and
    the tallies at failure time are preserved.  Idempotent — later calls
    return the same snapshot. *)

val killed : t -> bool
(** True once a {!Fault.Kill_server} fault has fired (racy-but-tear-free
    while running; stable after {!stop}). *)

val engine : t -> Essa.Engine.t
val metrics : t -> Essa_obs.Registry.t
