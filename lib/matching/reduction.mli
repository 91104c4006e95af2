(** The paper's reduced-graph technique (Section III-E, Figs. 9–11).

    For each slot, keep only the [k] advertisers with the highest expected
    revenue for that slot (an insertion-select over the n candidates,
    [O(n)] per slot while few rows beat the kept tail).  The union over
    slots has at most [k²] advertisers; an optimal matching of the full
    graph survives in the reduced graph (exchange argument: a winner
    outside a slot's top-k can be swapped for an unassigned top-k member
    without losing weight).  Solving the reduced graph with the Hungarian
    algorithm costs [O(k⁵)]; the selection adds [O(nk)] when few rows beat
    the kept tail, [O(nk²)] at worst. *)

type t = {
  advertisers : int array;
      (** selected original advertiser indices, ascending *)
  reduced_w : float array array;
      (** [|advertisers| × k] slice of the weight matrix *)
}

val select :
  rows:float array array -> ids:int array -> len:int -> j:int -> count:int ->
  worst:bool -> tk_ids:int array -> tk_scores:float array ->
  tk_slots:int array -> int
(** The one top-k kernel.  [select ~rows ~ids ~len ~j ~count ~worst ...]
    keeps in the three buffers (capacity [count]) the [count] rows of
    [\[0, len)] that come first on column [j] of [rows], and returns how
    many it kept (fewer only when fewer rows are live).  Row [slot] is
    live when [ids.(slot) >= 0]; its id breaks ties.  The order is
    canonical: higher score first, ties to the smaller id, or exactly the
    reverse when [worst] (the bottom [count]).  Entry [i] of the result
    is the row [tk_slots.(i)], with id [tk_ids.(i)] and score
    [tk_scores.(i)].  It allocates nothing. *)

val top_per_slot : w:float array array -> count:int -> (int * float) list array
(** [top_per_slot ~w ~count] = per slot (0-based array index), the [count]
    advertisers with the highest weight for that slot, best first, as
    [(advertiser, weight)]: {!select} over the rows of [w], so ties go to
    the smaller advertiser index. *)

val reduce : ?top:(int * float) list array -> w:float array array -> unit -> t
(** Build the reduced instance from per-slot top lists ([top] defaults to
    [top_per_slot ~w ~count:k]; pass lists computed elsewhere, such as
    {!Tree_topk.tree_merge}'s, to reuse them). *)

val solve : ?top:(int * float) list array -> w:float array array -> unit -> Assignment.t
(** RH: reduce, run {!Hungarian.solve} on the reduced graph, translate the
    assignment back to original advertiser indices.  Optimal (tested
    against {!Hungarian.solve} and {!Brute.best}). *)
