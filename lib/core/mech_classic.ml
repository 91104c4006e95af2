open Mechanism

(* Winner determination.  Besides the global assignment, every branch
   produces a *pricing view*: the weight (sub)matrix and the index
   mapping it is expressed in.  The candidate rows of `Rh and the reduced
   view built from `Rhtalu's top-(k+1) lists support exact GSP and exact
   VCG (removing a winner never pushes the removal-optimum outside the
   lists). *)
let wd x s ~reserve ~keyword =
  reset_wd_stats s;
  match x.x_method with
  | `Lp ->
      let w = fill_weights x s ~reserve ~keyword in
      { e_assignment = Essa_lp.Assignment_lp.solve ~w (); e_view = Full w }
  | `Lp_dense ->
      let w = fill_weights x s ~reserve ~keyword in
      {
        e_assignment = Essa_lp.Assignment_lp.solve ~solver:`Tableau ~w ();
        e_view = Full w;
      }
  | `H ->
      let w = fill_weights x s ~reserve ~keyword in
      { e_assignment = Essa_matching.Hungarian.solve_classic ~w; e_view = Full w }
  | `Rh -> rh_winner_determination x s ~reserve (keyword_view x s ~keyword)
  | `Rhtalu ->
      (* The full matrix is never materialized: weights travel inside the
         top lists and the reduced view. *)
      let top = ta_top_lists x s ~reserve ~keyword ~count:(x.x_k + 1) in
      let advertisers, reduced_w = reduced_from_top x s ~reserve ~keyword top in
      let reduced = Essa_matching.Hungarian.solve ~w:reduced_w in
      let assignment =
        Array.map (Option.map (fun local -> advertisers.(local))) reduced
      in
      {
        e_assignment = assignment;
        e_view = Reduced { advertisers; w = reduced_w; top };
      }

let per_click_of_expected x ~expected ~slot ~adv =
  let p = x.x_ctr.(adv).(slot - 1) in
  if p <= 0.0 || expected <= 0.0 then 0
  else int_of_float (Float.ceil ((expected /. p) -. 1e-9))

(* VCG on a pricing view: [local.(j0)] is the row of [w] that won ad slot
   j0.  Solve on the view's local indices, then translate each payment
   into a per-click price for the slot's winner. *)
let vcg_prices x ~w ~local ~assignment =
  let base = Array.make (Array.length w) 0.0 in
  let payments = Pricing.vcg ~method_:`Rh ~w ~base ~assignment:local () in
  Array.mapi
    (fun j0 cell ->
      match (cell, local.(j0)) with
      | Some adv, Some r ->
          per_click_of_expected x ~expected:payments.(r) ~slot:(j0 + 1) ~adv
      | _ -> 0)
    assignment

let price_eval ~pricing x s ~reserve ~keyword ev =
  let assignment = ev.e_assignment in
  match (ev.e_view, pricing) with
  | Priced prices, _ -> prices
  | Scored { winners; w; _ }, `Gsp ->
      gsp_from_candidates x s ~reserve ~assignment ~winners ~w
  | Reduced { top; _ }, `Gsp -> gsp_from_top x s ~reserve ~assignment ~top
  | Full w, `Gsp ->
      let ctr ~adv ~slot = x.x_ctr.(adv).(slot - 1) in
      Array.map
        (function None -> 0 | Some p -> max p reserve)
        (Pricing.gsp_per_click ~w ~ctr ~assignment ())
  | Scored { kv; winners; _ }, `Pay_as_bid ->
      (* Slot 1 winners owe their Click∧Slot1 premium too. *)
      Array.mapi
        (fun j0 slot ->
          if slot < 0 then 0
          else kv.kv_bids.(slot) + if j0 = 0 then kv.kv_prems.(slot) else 0)
        winners
  | (Full _ | Reduced _), `Pay_as_bid ->
      Array.mapi
        (fun j0 cell ->
          match cell with
          | None -> 0
          | Some adv ->
              Essa_strategy.Roi_fleet.bid x.x_fleet ~adv ~keyword
              + (if j0 = 0 then x.x_premiums.(keyword).(adv) else 0))
        assignment
  | Full w, `Vcg -> vcg_prices x ~w ~local:assignment ~assignment
  | Reduced { w; _ }, `Vcg ->
      (* [reduced_from_top] recorded each candidate's reduced row in
         [local_of] for this very auction. *)
      vcg_prices x ~w
        ~local:(Array.map (Option.map (fun adv -> s.local_of.(adv))) assignment)
        ~assignment
  | Scored { winners; w; _ }, `Vcg ->
      (* So did [rh_winner_determination], by view slot. *)
      vcg_prices x ~w
        ~local:
          (Array.map
             (fun slot -> if slot < 0 then None else Some s.local_of.(slot))
             winners)
        ~assignment

let make (pricing : pricing) : (module S) =
  (module struct
    let name =
      match pricing with
      | `Gsp -> "gsp"
      | `Vcg -> "vcg"
      | `Pay_as_bid -> "pay-as-bid"

    let winner_determination x s ~keyword = wd x s ~reserve:x.x_reserve ~keyword

    let price x s ~keyword ev =
      price_eval ~pricing x s ~reserve:x.x_reserve ~keyword ev

    let cheap x s ~keyword = cheap_allocation x s ~reserve:x.x_reserve ~keyword
  end)
