type rule = [ `Fixed of int array | `Monopoly ]

(* The monopoly reserve: walk the keyword's bids in descending order and
   take the price r maximizing r · |{i : bid_i >= r}|.  With duplicates,
   the last position of a run carries the correct count, and since we
   maximize over every position the run's best is always considered.
   Strict improvement only, so ties keep the higher price — the
   conventional monopolist tie-break (same allocation, more revenue
   headroom). *)
let monopoly_reserve x s ~keyword =
  let kv = Mechanism.keyword_view x s ~keyword in
  let bids =
    Array.map
      (fun slot -> kv.Mechanism.kv_bids.(slot))
      (Mechanism.live_slots kv)
  in
  Array.sort (fun a b -> Int.compare b a) bids;
  let best_r = ref 0 and best_rev = ref 0 in
  Array.iteri
    (fun i b ->
      if b > 0 then begin
        let rev = b * (i + 1) in
        if rev > !best_rev then begin
          best_rev := rev;
          best_r := b
        end
      end)
    bids;
  !best_r

let effective_reserve x s rule ~keyword =
  let floor =
    match rule with
    | `Fixed floors -> floors.(keyword)
    | `Monopoly -> monopoly_reserve x s ~keyword
  in
  max x.Mechanism.x_reserve floor

(* The floor is recomputed in each hook rather than carried through the
   eval: it is a pure function of the fleet state, which cannot change
   between winner determination and pricing within one auction, so the
   hooks always agree. *)
let make ~(pricing : Mechanism.pricing) (rule : rule) : (module Mechanism.S) =
  (module struct
    let name = "reserve"

    let winner_determination x s ~keyword =
      Mech_classic.wd x s
        ~reserve:(effective_reserve x s rule ~keyword)
        ~keyword

    let price x s ~keyword ev =
      Mech_classic.price_eval ~pricing x s
        ~reserve:(effective_reserve x s rule ~keyword)
        ~keyword ev

    let cheap x s ~keyword =
      Mechanism.cheap_allocation x s
        ~reserve:(effective_reserve x s rule ~keyword)
        ~keyword
  end)
