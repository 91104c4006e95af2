(** Fixed-bucket log-scale latency histograms.

    The observability substrate for the per-auction latency claims of the
    paper's Section V: integer samples (nanoseconds by convention) land in
    geometric buckets (~8 per octave, < 9.1% relative quantile error) via a
    pure-int binary search — the record path performs no allocation and no
    float work, so it can sit inside [Engine.run_auction] without
    perturbing the measurement.

    Histograms with the same bucket layout are mergeable, which is how
    the server's per-lane recorders and a partitioned engine's
    per-keyword recorders aggregate into one snapshot: record locally,
    [merge_into] after joining. *)

type t

val default_bounds : int array
(** The shared default layout: 1 ns .. 200 s, growth factor 2{^1/8}, exact
    linear region below 16.  About 300 buckets. *)

val create : ?bounds:int array -> unit -> t
(** A fresh empty histogram.  [bounds] are inclusive upper bounds, strictly
    increasing, first >= 1 (an overflow bucket is added internally).
    @raise Invalid_argument on an empty or non-increasing layout. *)

val record : t -> int -> unit
(** Record one sample.  Negative samples clamp to 0 {e and} increment
    {!clamped} — a negative latency means a clock was misused upstream,
    and folding it into bucket 0 silently would corrupt [sum]/[mean]
    with no trace.  Allocation-free. *)

val count : t -> int
val sum : t -> int

val clamped : t -> int
(** How many recorded samples were negative (clamped to 0).  Anything
    non-zero is a bug in the caller's clock handling; [merge_into]
    sums it, [reset] zeroes it. *)

val min_max : t -> (int * int) option
(** Exact smallest and largest recorded sample; [None] when empty. *)

val mean : t -> float
(** Exact mean ([sum/count]); [nan] when empty. *)

val percentile : t -> float -> float
(** [percentile t q] estimates the [q]-th percentile ([q] clamped to
    [\[0,100\]]) by linear interpolation inside the owning bucket, clamped
    to the exact observed [min,max] (so p0 and p100 are exact).  [nan]
    when empty.  @raise Invalid_argument on NaN [q]. *)

val max_value : t -> float
(** Exact maximum as a float; [nan] when empty.  Convenience for
    p50/p90/p99/max reporting rows. *)

val merge_into : into:t -> t -> unit
(** Add all of the source's samples into [into].
    @raise Invalid_argument if the bucket layouts differ. *)

val reset : t -> unit

val iter_nonempty_cumulative :
  t -> (upper:int option -> cumulative:int -> unit) -> unit
(** Iterate non-empty buckets in increasing order with running cumulative
    counts — the shape Prometheus-style exporters need.  [upper = None]
    is the overflow bucket (le = +Inf). *)
