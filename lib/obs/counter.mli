(** Monotone event counters (auctions run, TA sorted accesses, cents
    billed, ...).  Increments are atomic ([fetch_and_add]), so a counter
    handle may be shared by concurrent lanes — the partitioned serve mode
    bumps engine counters from several domains at once. *)

type t

val create : unit -> t
val incr : t -> unit

val add : t -> int -> unit
(** @raise Invalid_argument on a negative increment (counters are
    monotone; use a {!Gauge} for values that go down). *)

val value : t -> int
val reset : t -> unit
