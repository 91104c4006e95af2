(** A classic binary min-heap over float priorities with arbitrary
    payloads.  Used by the trigger queue of Section IV-B: triggers wait for
    a shared monotone variable to reach a critical value, so the queue
    must pop everything with priority ≤ the variable's current value. *)

type 'a t

val create : unit -> 'a t
val size : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> priority:float -> 'a -> unit

val retain : 'a t -> ('a -> bool) -> unit
(** Drop, in place, every entry whose payload fails the predicate, in
    O(size); surviving equal-priority entries may pop in a new order. *)

val min_priority : 'a t -> float option

val pop : 'a t -> (float * 'a) option
(** Remove and return the minimum-priority entry.  Entries with equal
    priority pop in unspecified order. *)

val pop_le : 'a t -> float -> (float * 'a) list
(** [pop_le t v] removes and returns every entry with priority ≤ [v], in
    ascending priority order. *)
