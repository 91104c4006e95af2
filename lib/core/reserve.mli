(** Iyengar–Kumar reserve-price auctions: the classic matching mechanism
    with a {e per-keyword} price floor above the engine-wide reserve.
    Bids below the effective floor are excluded from winner determination
    (their weights are zeroed exactly like sub-reserve bids in the base
    engine), so slots can go unfilled when demand is thin — the revenue /
    fill-rate trade the bakeoff measures.  Winning prices are floored at
    the same effective reserve, for every pricing rule.

    Two floor rules:
    - [`Fixed floors]: an explicit per-keyword floor array (length =
      keyword count; entries must be non-negative).  The effective floor
      is [max engine_reserve floors.(keyword)].
    - [`Monopoly]: the monopoly reserve recomputed from the keyword's
      current bids each auction — the price [r] maximizing
      [r · |{i : bid_i >= r}|], i.e. the revenue of a posted-price
      monopolist facing this bid distribution (ties go to the higher
      price).  A pure function of the fleet state, so the evaluation
      cache, decimation windows and WAL replay stay exact.

    Everything else — winner determination method, pricing, access
    counters, flat vs dense — is {!Mech_classic} called with the elevated
    floor. *)

type rule = [ `Fixed of int array | `Monopoly ]

val make : pricing:Mechanism.pricing -> rule -> (module Mechanism.S)
(** The reserve mechanism ([name = "reserve"]).  [`Fixed] array length is
    validated by [Engine.create]/[create_flat], not here. *)
