(** The keyword-sharded auction server: bounded ingress → batcher →
    shard-affine lanes → deterministic commit, under lane supervision.

    A [t] owns one {!Essa.Engine.t} and a standing fleet of domains: one
    batcher and [workers] lane domains.  Producers {!submit} queries
    (non-blocking; overload is shed — see {!Ingress}); the batcher drains
    the ingress queue in arrival order, groups each batch by keyword
    shard ({!Shard}) and hands every lane its keywords' queries; lanes
    execute {!Essa.Engine.run_auction} under the {!Commit_clock}
    turnstile, so commits happen in global arrival order (and hence
    per-keyword FIFO order).

    {b Determinism contract}: for the same engine seed and the same
    accepted query sequence, as long as {e no fault fires and no deadline
    trips}, the served stream — every summary delivered to [on_commit],
    the engine's final advertiser states, clicks and total revenue — is
    bit-identical to running the same queries through
    [Engine.run_auction] serially, for any [workers] count.  The ROI
    heuristic's cross-keyword coupling (global spend, global auction
    clock, one shared click stream) makes auction execution a serial
    dependency chain, so the turnstile serializes exactly those commits
    rather than relax the contract; concurrency lives around that chain —
    lanes overlap dequeue/dispatch with execution.

    {b Fault tolerance}: a lane whose execution raises (engine or
    [on_commit] exception) no longer poisons the fleet.  The supervisor
    records an {!error} report carrying the failing query, still commits
    that sequence number (the clock never stalls), and applies the
    policy: restart the lane up to [max_restarts] times, then degrade it
    (remaining queries on that lane blind-commit, counted as [skipped],
    while the other lanes keep serving).  An optional per-auction
    deadline budget degrades slow auctions instead of letting them stall
    the stream (see {!Essa.Engine.degrade}); once a fault has fired or a
    deadline tripped, bit-identity is off the table by construction —
    the run is degraded, and says so in its stats, counters and
    summaries.

    The in-flight window is bounded (at most one executing batch plus one
    staged batch beyond the ingress queue), so the ingress queue is the
    real backpressure surface: sustained overload fills it and sheds.

    {b Commit modes}: [`Global] (the default) is everything above —
    commits pass through the {!Commit_clock} turnstile in global arrival
    order, and the serial-equivalence contract holds bit-for-bit.
    [`Per_keyword] pairs the server with a {e partitioned} engine
    ([Engine.create ~partitioned:true]): each keyword's auctions commit in
    that keyword's own FIFO order with {e no cross-keyword wait} (the
    turnstile is replaced by the counting {!Commit_ledger}; the
    [turnstile_waits] stat is structurally zero).  The contract weakens
    from one global stream to one stream {e per keyword}: every committed
    summary records the spend snapshot its auction read, each keyword's
    summary log is replayable bit-for-bit from those witnesses
    ({!Essa_serve.Replay}), and conservation invariants (Σ clicked prices
    = Σ advertiser spend; admission-time budget respect) hold across any
    lane interleaving. *)

type t

type commit_mode = [ `Global | `Per_keyword ]

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
  commit_mode : commit_mode;
  turnstile_waits : int;
      (** [`Global]: how many commits had to block for another keyword's
          turn; [`Per_keyword]: structurally 0 (there is no turnstile) *)
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
  ?commit:commit_mode ->
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
    touch the engine until after {!stop}).  [workers] is the lane count
    (>= 1; keep it below the core count in production — the batcher is
    an additional domain).  [queue_capacity]
    (default 1024) bounds the ingress queue; [max_batch] (default 64)
    bounds one batch.  [on_commit] is invoked for every {e executed}
    auction (deadline-degraded ones included; failed and skipped queries
    deliver no summary), in commit (= arrival) order, on the committing
    lane's domain while it holds the commit turn — keep it cheap, it is
    on the serial path.
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
    [commit] selects the commit discipline (default [`Global]; see the
    module description).  [`Per_keyword] requires a partitioned engine
    and [`Global] a serial one — the pairing is validated here.  In
    [`Per_keyword] mode [on_commit] runs {e concurrently} from several
    lane domains (per-keyword FIFO, no cross-keyword order): it must be
    thread-safe, or you can ignore it and read the per-keyword
    {!commit_log} after {!stop}.  A lane runs its work in arrival order,
    which keeps per-keyword FIFO.
    [balance] (default false) replaces the static modulo keyword→lane
    map with the load-aware {!Shard.map}: every [rebalance_every]
    (default 4) batches, at the quiescent point where the previous batch
    has fully committed and every lane is idle, the batcher folds the
    per-keyword executed counts into EWMAs and reassigns keywords —
    hot-head LPT plus power-of-two-choices (see {!Shard}).  Because
    ownership only changes between batches, per-keyword FIFO and the
    replay contract are untouched; only which lane serves a keyword
    shifts.  [stats.rebalances] counts epochs.
    [wal] arms crash durability ([`Per_keyword] only): each lane appends
    a {!Wal} summary record at its commit point, and every
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
    commit-mode/engine mismatch. *)

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
(** Auctions committed so far (the commit clock's position in [`Global]
    mode, the ledger total in [`Per_keyword] mode). *)

val turnstile_waits : t -> int
(** Commits that had to block for another keyword's turn ([`Global]);
    structurally 0 in [`Per_keyword] mode. *)

val commit_log : t -> keyword:int -> Essa.Engine.summary list
(** One keyword's committed summaries in commit (= that keyword's FIFO)
    order, with their [spend_snapshot] replay witnesses.  Single-writer
    while running — call after {!stop}.  Only recorded in [`Per_keyword]
    mode; raises [Invalid_argument] under [`Global] or on a bad
    keyword. *)

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
