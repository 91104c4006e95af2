(** Winner determination — Section III.

    Given the expected-revenue matrix [w] ([n] advertisers × [k] slots) and
    the per-advertiser unassigned baselines [base], find the allocation
    maximizing expected revenue.  All methods agree on the optimum value
    (property-tested); they differ in cost:

    - [`Brute] — exhaustive, for tests and tiny instances;
    - [`Lp] — the linear-programming formulation solved with our simplex
      (the paper's baseline "LP"; integrality by Chvátal's theorem);
    - [`Hungarian] — straightforward Hungarian on the full bipartite graph,
      advertiser-major: [O(nk(n+k))] (the paper's "H");
    - [`Rh] — the paper's contribution: per-slot top-k reduction
      ([O(nk log k)]) then Hungarian on the ≤ k²-advertiser subgraph
      ([O(k⁵)]). *)

type method_ =
  [ `Brute
  | `Lp
  | `Hungarian
  | `Rh ]

val solve :
  method_:method_ -> w:float array array -> base:float array ->
  Essa_matching.Assignment.t
(** Optimal slot assignment.  [base] may be all zeros when bids never pay
    on non-assignment.  @raise Invalid_argument on shape mismatch. *)

val value :
  w:float array array -> base:float array -> Essa_matching.Assignment.t -> float
(** Expected revenue of an allocation (re-exported for convenience). *)

val adjusted : w:float array array -> base:float array -> float array array
(** [w.(i).(j) - base.(i)] — the matching weights that make "leave
    advertiser i unassigned" worth zero, which is the form every
    matching-based method consumes. *)
