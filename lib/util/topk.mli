(** Bounded top-k selection with a size-k min-heap, over any element
    type: feed elements one by one, the heap keeps the k largest seen so
    far (the heap root is the smallest retained element, i.e. the current
    admission threshold), in O(n log k) time and O(k) space.  The generic
    threshold algorithm, the daily-ramp fleet and the engine's degraded
    tier use it; the reduced-graph scan of Section III-E uses the
    unboxed [Essa_matching.Reduction.select] instead. *)

type 'a t
(** A top-k accumulator over elements of type ['a]. *)

val create : k:int -> compare:('a -> 'a -> int) -> 'a t
(** [create ~k ~compare] keeps the [k] largest elements under [compare].
    [k = 0] is allowed and retains nothing.
    @raise Invalid_argument if [k < 0]. *)

val offer : 'a t -> 'a -> bool
(** [offer t x] considers [x] for retention; returns [true] iff [x] was
    retained (possibly evicting the previous minimum).  Ties at the
    admission threshold are rejected, so the result is deterministic under
    a total order: the first k maximal elements in scan order win. *)

val size : 'a t -> int
(** Number of elements currently retained (≤ k). *)

val threshold : 'a t -> 'a option
(** Smallest retained element, i.e. what a new element must beat; [None]
    while fewer than [k] elements are retained. *)

val to_sorted_list : 'a t -> 'a list
(** Retained elements, largest first.  Does not consume the accumulator. *)

val to_list_unordered : 'a t -> 'a list
(** Retained elements in unspecified order (no sorting cost). *)

val of_array : k:int -> compare:('a -> 'a -> int) -> 'a array -> 'a list
(** One-shot convenience: the top-k of an array, largest first. *)
