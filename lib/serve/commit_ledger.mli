(** The server's commit ledger: per-keyword commit counting with no
    cross-keyword ordering.

    The ledger only {e counts}: each keyword's commits land in that
    keyword's own FIFO order (structural: one owning lane per keyword),
    and the ledger's job is merely to let flush/shutdown learn when a
    given number of commits has landed, without ever making one keyword
    wait for another.

    The commit fast path is one [fetch_and_add] plus one atomic load; the
    mutex/condvar pair is touched only when someone is actually waiting
    (flush, the batcher window, [stop]).  The waiter-count handshake makes
    the lost-wakeup race impossible under OCaml's SC atomics: waiters
    register (under the mutex) before re-checking the count, committers
    bump the count before checking for waiters. *)

type t

val create : num_keywords:int -> t
(** @raise Invalid_argument if [num_keywords < 1]. *)

val total : t -> int
(** Commits landed so far, all keywords. *)

val keyword_count : t -> keyword:int -> int
(** Commits landed on one keyword.  Exact only when read from the
    keyword's owning lane or after the lanes have joined.
    @raise Invalid_argument on a bad keyword. *)

val commit : t -> keyword:int -> unit
(** Record one commit on [keyword].  Must be called by the keyword's
    owning lane (the per-keyword cell is a plain single-writer counter);
    the total is atomic and safe from all lanes concurrently.
    @raise Invalid_argument on a bad keyword. *)

val wait_until : t -> count:int -> unit
(** Block until at least [count] commits have landed (any keywords). *)
