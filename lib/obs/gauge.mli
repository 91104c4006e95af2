(** Point-in-time float values (queue depth, current bid level, ...).
    Last write wins. *)

type t

val create : ?initial:float -> unit -> t
val set : t -> float -> unit
val add : t -> float -> unit
val value : t -> float
