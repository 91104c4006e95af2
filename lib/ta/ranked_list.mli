(** A mutable list of (object, score) pairs maintained in descending score
    order, with O(log n) insertion, removal and repositioning.

    Section IV-A keeps, per slot, the advertisers sorted by each bid
    parameter; when the auction's k winners update their parameters, only
    their positions move ("O(|Yj| · k · log n)" in the paper).  Backed by a
    balanced tree (stdlib [Map]) keyed by (score desc, id asc) plus an
    id → score index.  Serves the ramp fleet's per-parameter lists; the
    Section IV-B logical-update lists are flat sorted arrays instead
    ([Essa_strategy.Adjustment_list]), read in place by the engine's
    threshold algorithm. *)

type t

val create : unit -> t

val of_array : (int * float) array -> t
(** Bulk build; later ids win on duplicate ids. *)

val size : t -> int

val insert : t -> id:int -> value:float -> unit
(** Add or reposition [id] at [value]. *)

val remove : t -> id:int -> unit
(** No-op if absent. *)

val value_of : t -> int -> float option

val mem : t -> int -> bool

val max_entry : t -> (int * float) option
(** Highest-scored entry (ties: smallest id). *)

val to_seq_desc : t -> (int * float) Seq.t
(** Lazy descending traversal — the TA's sorted-access stream.  Reflects
    the list as of the call; do not mutate during traversal. *)

val to_list_desc : t -> (int * float) list
