(** The paper's reduced-graph technique (Section III-E, Figs. 9–11).

    For each slot, keep only the [k] advertisers with the highest expected
    revenue for that slot (a size-k min-heap over the n candidates,
    [O(n log k)] per slot).  The union over slots has at most [k²]
    advertisers; an optimal matching of the full graph survives in the
    reduced graph (exchange argument: a winner outside a slot's top-k can
    be swapped for an unassigned top-k member without losing weight).
    Solving the reduced graph with the Hungarian algorithm costs [O(k⁵)]
    for a total of [O(nk log k + k⁵)]. *)

type t = {
  advertisers : int array;
      (** selected original advertiser indices, ascending *)
  reduced_w : float array array;
      (** [|advertisers| × k] slice of the weight matrix *)
}

val scan_top : count:int -> get:(int -> float) -> int -> int -> (int * float) list
(** [scan_top ~count ~get lo hi] — the [count] best [(i, get i)] for [i]
    in [\[lo, hi)], best first, ties to the smaller index.  The shared
    scan primitive behind {!top_per_slot} and the tree leaves; it boxes
    nothing for candidates that lose to the running threshold. *)

val top_per_slot : w:float array array -> count:int -> (int * float) list array
(** [top_per_slot ~w ~count] = per slot (0-based array index), the [count]
    advertisers with the highest weight for that slot, best first, as
    [(advertiser, weight)].  Ties broken toward the earlier-scanned
    advertiser. *)

val reduce : ?top:(int * float) list array -> w:float array array -> unit -> t
(** Build the reduced instance from per-slot top lists ([top] defaults to
    [top_per_slot ~w ~count:k]; pass lists computed elsewhere, such as
    {!Tree_topk.tree_merge}'s, to reuse them). *)

val solve : ?top:(int * float) list array -> w:float array array -> unit -> Assignment.t
(** RH: reduce, run {!Hungarian.solve} on the reduced graph, translate the
    assignment back to original advertiser indices.  Optimal (tested
    against {!Hungarian.solve} and {!Brute.best}). *)
