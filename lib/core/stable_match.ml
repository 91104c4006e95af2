type outcome = {
  sm_assignment : int option array;
  sm_prices : int array;
}

(* The ascending auction (Demange–Gale–Sotomayor shape, 1-cent
   increment).  Slot prices start at the reserve; unmatched candidates
   are popped FIFO and demand the slot maximizing ctr · (wtp − effective
   price), where the effective price of an occupied slot is one cent
   above its current price (taking it evicts the occupant and commits the
   rise).  A candidate with no positive-utility acceptable slot drops out
   permanently.  Prices are monotone and bounded by the maximum
   willingness to pay, so the loop terminates; the fixed point is a
   matching no candidate wants to deviate from at current prices (+1 cent
   for occupied slots) — the ε-stable outcome of Aggarwal et al. with
   ε = 1 cent. *)
let solve ~bids ~ctr ?premiums ?max_price ~reserve ~k () =
  let n = Array.length bids in
  let premiums =
    match premiums with Some p -> p | None -> Array.make n 0
  in
  if Array.length premiums <> n then
    invalid_arg "Stable_match.solve: premiums length <> bids";
  if k < 0 then invalid_arg "Stable_match.solve: negative k";
  if reserve < 0 then invalid_arg "Stable_match.solve: negative reserve";
  let wtp i j = bids.(i) + if j = 0 then premiums.(i) else 0 in
  let mp = match max_price with Some f -> f | None -> wtp in
  let prices = Array.make k reserve in
  let occupant = Array.make k (-1) in
  let q = Queue.create () in
  let max_wtp = ref 0 in
  for i = 0 to n - 1 do
    (* Candidates bidding below the reserve are excluded outright, like
       every other mechanism here (the slot-1 premium never rescues a
       sub-reserve bid). *)
    if bids.(i) >= reserve then begin
      Queue.add i q;
      max_wtp := max !max_wtp (wtp i 0)
    end
  done;
  (* Each pop either drops a candidate permanently or assigns it (at most
     one eviction, which raises one price by one cent); prices never
     exceed the maximum willingness to pay.  The guard is a backstop for
     that argument, not a tuning knob. *)
  let guard = ref (n + (k * (!max_wtp - reserve + 2)) + 16) in
  while not (Queue.is_empty q) do
    decr guard;
    assert (!guard >= 0);
    let i = Queue.pop q in
    let best_j = ref (-1) and best_u = ref 0.0 and best_ep = ref 0 in
    for j = 0 to k - 1 do
      let ep = prices.(j) + if occupant.(j) >= 0 then 1 else 0 in
      let w = wtp i j in
      if ep <= mp i j && w > ep then begin
        let c = ctr i j in
        if c > 0.0 then begin
          let u = c *. float_of_int (w - ep) in
          (* Strict improvement only: ties stay with the lower slot. *)
          if u > !best_u then begin
            best_j := j;
            best_u := u;
            best_ep := ep
          end
        end
      end
    done;
    if !best_j >= 0 then begin
      let j = !best_j in
      let prev = occupant.(j) in
      if prev >= 0 then Queue.add prev q;
      prices.(j) <- !best_ep;
      occupant.(j) <- i
    end
  done;
  let sm_assignment =
    Array.map (fun o -> if o < 0 then None else Some o) occupant
  in
  let sm_prices =
    Array.mapi (fun j o -> if o < 0 then 0 else prices.(j)) occupant
  in
  { sm_assignment; sm_prices }

(* The engine mechanism: the keyword's current bidders as candidates,
   willingness to pay = bid (+ premium on slot 1), max price = the
   willingness itself.  One pass computes assignment and prices (the
   auction's fixed point IS the price vector), so the view is [Priced]
   and the pricing phase is a return.  Deterministic and RNG-free, hence
   safe under the evaluation cache, decimation windows and WAL replay. *)
let wd_stable x s ~keyword =
  Mechanism.reset_wd_stats s;
  let k = x.Mechanism.x_k in
  let kv = Mechanism.keyword_view x s ~keyword in
  let ids = kv.Mechanism.kv_ids and slots = Mechanism.live_slots kv in
  (* Canonical candidate order: ascending id, independent of how
     free-list churn permuted a flat partition's slots. *)
  Array.sort (fun a b -> Int.compare ids.(a) ids.(b)) slots;
  let gids = Array.map (fun sl -> ids.(sl)) slots in
  let bids = Array.map (fun sl -> kv.Mechanism.kv_bids.(sl)) slots in
  let prems = Array.map (fun sl -> kv.Mechanism.kv_prems.(sl)) slots in
  let ctr c j = x.Mechanism.x_ctr.(gids.(c)).(j) in
  let { sm_assignment; sm_prices } =
    solve ~bids ~ctr ~premiums:prems ~reserve:x.Mechanism.x_reserve ~k ()
  in
  let nc = Array.length gids in
  Essa_obs.Counter.add x.Mechanism.x_c_reduced nc;
  s.Mechanism.wd_reduced <- s.Mechanism.wd_reduced + nc;
  {
    Mechanism.e_assignment =
      Array.map (Option.map (fun c -> gids.(c))) sm_assignment;
    e_view = Mechanism.Priced sm_prices;
  }

let mech : (module Mechanism.S) =
  (module struct
    let name = "stable"
    let winner_determination = wd_stable

    let price _x _s ~keyword:_ ev =
      match ev.Mechanism.e_view with
      | Mechanism.Priced p -> p
      | _ -> assert false

    let cheap x s ~keyword =
      Mechanism.cheap_allocation x s ~reserve:x.Mechanism.x_reserve ~keyword
  end)
