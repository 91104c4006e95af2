(** Deterministic pseudo-random number generation.

    All randomness in the library flows through an explicit [Rng.t] state so
    that every experiment and test is reproducible from a seed.  The
    generator is SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): tiny state,
    excellent statistical quality for simulation workloads, and trivially
    splittable, which we use to give independent streams to independent
    advertisers. *)

type t
(** Mutable generator state: the 64-bit SplitMix64 state, kept unboxed
    and updated in place.  Draws allocate nothing: {!int}, {!bool} and
    {!bernoulli} return immediates.  Only boxing at a call boundary
    allocates, as for any [int64] or float: {!bits64}'s result, and a
    float argument or result of a call the compiler does not inline. *)

val create : int -> t
(** [create seed] returns a fresh generator seeded deterministically from
    [seed].  Equal seeds yield equal streams. *)

val copy : t -> t
(** [copy t] is an independent generator that will produce the same future
    stream as [t] does from this point. *)

val state : t -> int64
(** The raw SplitMix64 state — the whole generator.  Persist it and
    {!of_state} / {!set_state} resume the exact stream; the durability
    snapshots use this to capture mid-run RNG positions. *)

val of_state : int64 -> t
(** A generator resuming from a raw state captured with {!state}. *)

val set_state : t -> int64 -> unit
(** Overwrite a generator's position in place (restore path). *)

val split : t -> key:int -> t
(** [split t ~key] derives a new generator whose stream is statistically
    independent of [t]'s output and of every other key's stream.  [t] is
    {e not} advanced: the split is a pure function of [t]'s current state
    and [key], so distinct keys yield disjoint streams and any permutation
    of split calls reproduces the same family of generators — the property
    the partitioned auction engine relies on to give every keyword its own
    deterministic click-sampling stream. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  @raise Invalid_argument if
    [bound <= 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] inclusive.
    @raise Invalid_argument if [hi < lo]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val float_in : t -> float -> float -> float
(** [float_in t lo hi] is uniform in [\[lo, hi)]. *)

val bool : t -> bool
(** Fair coin. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p] (clamped to [\[0,1\]]). *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array.
    @raise Invalid_argument on an empty array. *)
