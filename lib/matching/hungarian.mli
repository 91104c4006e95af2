(** Maximum-weight bipartite matching between advertisers and slots
    (Kuhn's Hungarian method in the Jonker–Volgenant successive-
    shortest-augmenting-path formulation, with dual potentials).

    Both entry points solve the same problem — select at most one
    advertiser per slot and at most one slot per advertiser, maximizing the
    sum of selected edge weights, never selecting an edge of non-positive
    weight (leaving a slot empty is always allowed and is preferred to a
    worthless assignment, matching {!Brute.best}):

    - {!solve} pivots on the *slot* side: k augmentation phases, each a
      Dijkstra over advertiser columns — [O(k²(n+k))] time, linear in [n].
      This is the engine run on the reduced graph by the paper's RH method.
    - {!solve_classic} pivots on the *advertiser* side ("advertisers on the
      left", as the paper describes method H): n augmentation phases, each
      scanning all [n + k] columns — [Θ(nk(n+k))] time, i.e. quadratic in
      [n], reproducing the complexity the paper reports for the
      straightforward Hungarian baseline.

    The two produce allocations of identical total weight (property-tested;
    tie-breaking between equal-weight optima may differ). *)

val solve : w:float array array -> Assignment.t
(** [solve ~w] for [w] an [n × k] weight matrix ([w.(i).(j)] = value of
    giving slot [j+1] to advertiser [i]).  Returns the optimal assignment.
    Weights may be negative (such edges are never used).  An empty matrix
    ([n = 0]) gives the empty assignment [[||]]; flat winner determination
    relies on this for a keyword with no candidates.

    The solve runs in a workspace private to the calling domain: the cost
    array, potentials, matching and Dijkstra buffers are kept between
    calls and grown when a larger shape arrives, so once a domain has seen
    its largest shape a solve allocates only the returned assignment.  It
    is safe to call from several domains at once; it is not reentrant
    within one domain (nothing in it calls back out).
    @raise Invalid_argument on a ragged matrix. *)

val solve_classic : w:float array array -> Assignment.t
(** Same contract as {!solve}, with the paper's H-method cost profile. *)

val optimal_weight : w:float array array -> float
(** Total weight of an optimal matching ([matching_weight] of {!solve}). *)
