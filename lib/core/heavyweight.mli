(** Winner determination beyond 1-dependence: the heavyweight/lightweight
    model of Section III-F.

    Advertisers are heavyweights or lightweights; click/purchase
    probabilities and bids may depend on which slots host heavyweights.
    The auctioneer chooses the allocation *and* the class pattern jointly:
    for each of the [2^k] heavy-slot subsets, heavyweights are matched to
    heavy slots and lightweights to light slots independently, and the best
    (pattern, allocation) pair wins — [O(2^k (n log k + k⁵))].  The paper
    spreads the independent patterns over [2^k] processing units; here
    they are enumerated serially, in mask order.

    Semantics note: the declared pattern is part of the allocation
    decision; a declared-heavy slot left empty still evaluates class
    predicates as heavy.  This makes subset enumeration exact and is
    consistent with {!Essa_prob.Class_model}. *)

type result = {
  heavy_slots : bool array;                  (** the winning pattern *)
  assignment : Essa_matching.Assignment.t;
  value : float;                             (** expected revenue, cents *)
}

val solve :
  model:Essa_prob.Class_model.t ->
  bids:Essa_bidlang.Bids.t array ->
  unit ->
  result
(** Enumerate all [2^k] patterns, solving two reduced-graph matchings per
    pattern.  Deterministic: among equal-value optima the
    lexicographically smallest pattern bitmask wins.
    @raise Invalid_argument on shape mismatch. *)

val solve_brute :
  model:Essa_prob.Class_model.t ->
  bids:Essa_bidlang.Bids.t array ->
  unit ->
  result
(** Ground truth: brute-force allocations inside each pattern.  Tests
    assert it matches {!solve} on small instances. *)
