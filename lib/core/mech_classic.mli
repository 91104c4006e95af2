(** The paper's mechanism — matching-based winner determination with
    GSP / VCG / pay-as-bid pricing — expressed through {!Mechanism.S}.
    [make pricing] is bit-identical to the pre-refactor engine paths:
    same assignments, prices, [essa.ta.*] and reduction counters for
    every method, serial / partitioned / flat (pinned by the existing
    property suites).

    The [~reserve]-parameterized entry points are exported for reuse by
    mechanisms that are "classic with a different floor" ({!Reserve}):
    calling them with [ctx.x_reserve] is exactly [make]'s behaviour. *)

val wd :
  Mechanism.ctx -> Mechanism.scratch -> reserve:int -> keyword:int ->
  Mechanism.eval
(** Winner determination for the ctx's method (flat engines run [`Rh]).
    Resets the scratch access-statistic tallies first. *)

val price_eval :
  pricing:Mechanism.pricing ->
  Mechanism.ctx -> Mechanism.scratch -> reserve:int -> keyword:int ->
  Mechanism.eval -> int array
(** Price an [eval] under [pricing], flooring winning GSP prices at
    [reserve]. *)

val make : Mechanism.pricing -> (module Mechanism.S)
