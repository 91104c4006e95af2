(** A pool of long-lived worker domains.

    The paper's parallel algorithms (tree top-k aggregation, the 2^k
    heavyweight pattern enumeration) assume a standing fleet of machines.
    Spawning an OCaml domain costs around a millisecond — far more than
    the work shipped to it at auction granularity — so the in-process
    analogue of that standing fleet is a pool of workers created once and
    fed closures. *)

type t

val create : int -> t
(** [create d] spawns [d] worker domains (at least 1).
    @raise Invalid_argument if [d < 1]. *)

val size : t -> int

val run_array : t -> (unit -> 'a) array -> 'a array
(** [run_array t tasks] executes the tasks on the pool's workers and
    returns their results in order.  Blocks until all complete.  If a task
    raises, the first exception (in task order) is re-raised after all
    tasks have settled.  The array form is the allocation-lean
    submission interface (the chunks of [Essa_matching.Tree_topk.parallel]):
    no per-call list is built or traversed.  Tasks must not themselves
    call [run_array] on the same pool: the inner call would block a worker
    waiting for tasks that can only run on the workers it is occupying —
    self-deadlock, not detected.  Thread-safety against concurrent
    submissions is NOT provided — one orchestrator at a time, which is how
    the tree top-k, the heavyweight enumeration and the experiment sweeps
    use it. *)

val run : t -> (unit -> 'a) list -> 'a list
(** List-flavoured wrapper over {!run_array}; same contract. *)

val shutdown : t -> unit
(** Stop and join all workers.  Idempotent, and safe to call from a
    different domain than [run]'s orchestrator (the liveness flag is
    atomic); a [run] racing a concurrent [shutdown] either completes
    normally or raises [Invalid_argument] — it never hangs on a dead
    pool.  [run] after shutdown raises [Invalid_argument]. *)

val with_pool : int -> (t -> 'a) -> 'a
(** [with_pool d f] runs [f] over a fresh pool and always shuts it down. *)
