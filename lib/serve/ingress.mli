(** Bounded ingress queue: where queries enter the serving pipeline.

    The queue is the system's admission-control point.  Submission is
    non-blocking by policy: when the queue is full the query is {e shed}
    (rejected, counted) rather than the producer blocked — a serving
    system protects its latency by refusing load it cannot absorb, it
    does not push an unbounded wait back into the caller.  Acceptance
    assigns the query its global arrival sequence number: lanes run their
    work in that order, so each keyword commits in FIFO order.

    Observable state lives in [Essa_obs] metrics: a depth gauge
    ([essa.serve.queue_depth], updated under the queue mutex on every
    submit/drain), an accepted counter ([essa.serve.accepted]), a shed
    counter ([essa.serve.shed], overload only) and a closed-rejection
    counter ([essa.serve.rejected_closed], shutdown only — the two are
    different signals and are never conflated).

    Concurrency contract: any number of producers may [submit]; exactly
    one consumer (the batcher) calls [drain]. *)

type query = {
  seq : int;  (** arrival index, 0-based: the global commit order *)
  keyword : int;
  enqueue_ns : int64;  (** monotonic clock at acceptance *)
}

type t

val create :
  ?metrics:Essa_obs.Registry.t ->
  ?clock:(unit -> int64) ->
  capacity:int ->
  unit ->
  t
(** [capacity] bounds the number of accepted-but-undrained queries.
    [metrics] is the registry the depth gauge and counters register into
    (default: a fresh private one).  [clock] stamps [enqueue_ns] on
    acceptance (default {!Essa_util.Timing.now_ns}; injectable so tests
    can drive deterministic latencies).
    @raise Invalid_argument if [capacity < 1]. *)

type outcome =
  | Accepted of int  (** the query's arrival sequence number *)
  | Shed  (** queue full: overload rejection, counted, not enqueued *)
  | Closed
      (** queue closed: shutdown rejection — retrying is pointless, the
          server will never admit again.  Counted separately. *)

val submit : t -> keyword:int -> outcome
(** Non-blocking admission.  Never raises on overload; [Shed] is the
    load-shedding policy in action, [Closed] the shutdown signal. *)

val close : t -> unit
(** Stop admitting ([submit] returns [Closed] from now on) and wake the
    consumer; already-accepted queries remain drainable.  Idempotent. *)

val drain : t -> max:int -> query list
(** Block until at least one query is pending or the queue is closed,
    then remove and return up to [max] queries in arrival (FIFO) order.
    Returns [[]] only when the queue is closed and empty — the consumer's
    termination signal.  Single consumer only.
    @raise Invalid_argument if [max < 1]. *)

val depth : t -> int
val accepted : t -> int
val shed : t -> int

val rejected_closed : t -> int
(** Submissions rejected after {!close} (distinct from overload {!shed}). *)

val metrics : t -> Essa_obs.Registry.t
