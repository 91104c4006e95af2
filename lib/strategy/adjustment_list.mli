(** A ranked list of integer bids with a shared adjustment variable — the
    core datum of the paper's logical-update technique (Section IV-B).

    Every member's *effective* bid is [stored + adjustment]; decrementing
    every member is one [bulk_adjust] ([adjustment - 1]) instead of n
    writes, and the descending order is preserved because all members move
    by the same amount.

    Members are kept as sorted parallel arrays of ids and stored bids
    (stored bid descending, then id ascending), so the list is its own
    sorted view: {!sorted_arrays} hands the threshold algorithm the
    storage itself. *)

type t

val create : unit -> t
val size : t -> int
val adjustment : t -> int

val bulk_adjust : t -> int -> unit
(** Add a delta to every member's effective bid, O(1). *)

val insert : t -> id:int -> effective:int -> unit
(** Add (or reposition) a member at an effective bid, O(n): the entries
    after its position move up by one.
    @raise Invalid_argument on a negative id (ids are advertiser ids;
    a by-id mirror indexes on them). *)

val insert_many : t -> (int * int) list -> unit
(** [insert_many t entries] adds every [(id, effective)] in one merge
    from the back, O(m log m + n) for m entries instead of m shifts.
    @raise Invalid_argument, leaving [t] unchanged, on a negative id or
    an id that is already a member or repeated in [entries]. *)

val remove : t -> id:int -> unit
(** No-op if absent; otherwise O(log n + n): the entries after it move
    down by one. *)

val remove_many : t -> int list -> unit
(** Remove every listed member (absent ids are ignored) in one pass,
    O(m log n + n). *)

val mem : t -> int -> bool

val effective_of : t -> int -> int option
val stored_of : t -> int -> int option
(** The frozen stored value ([effective - adjustment at insert time]);
    bound triggers key on it.  {!mem}, {!stored_of} and {!effective_of}
    are one array read each. *)

val to_seq_desc : t -> (int * int) Seq.t
(** (id, effective bid), descending by bid then ascending by id.  Copies
    the members and captures the adjustment at the call, so the sequence
    reflects the list as of the call whatever happens to it later. *)

val sorted_arrays : t -> int array * int array * int
(** [(ids, stored, len)]: the list's own storage, no copy.  The first
    [len] entries are the members in the {!to_seq_desc} order, with
    *stored* (pre-adjustment) bids — add {!adjustment} per entry for
    effective bids.  {!bulk_adjust} leaves them valid; {!insert} and
    {!remove} shift entries in place and may swap in larger arrays, so
    read-only, and read again after any structural change.  Concurrent
    readers are safe while no domain mutates the list. *)
