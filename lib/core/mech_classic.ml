open Mechanism

(* Winner determination.  Besides the global assignment, every branch
   produces a *pricing view*: the weight (sub)matrix and the advertiser
   index mapping it is expressed in.  The reduced views built from
   top-(k+1) lists support exact GSP and exact VCG (removing a winner
   never pushes the removal-optimum outside the lists). *)
let wd x s ~reserve ~keyword =
  reset_wd_stats s;
  if x.x_is_flat then begin
    let assignment, winners = flat_winner_determination x s ~reserve ~keyword in
    { e_assignment = assignment; e_view = Flat_top winners }
  end
  else
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
    | (`Rh | `Rhtalu) as m ->
        let count = x.x_k + 1 in
        (* The full matrix is never materialized: weights travel inside
           the top lists and the reduced view. *)
        let top =
          match m with
          | `Rh -> rh_top_lists x s ~reserve ~keyword ~count
          | `Rhtalu -> ta_top_lists x s ~reserve ~keyword ~count
        in
        let advertisers, reduced_w = reduced_from_top x s ~reserve ~keyword top in
        let reduced = Essa_matching.Hungarian.solve ~w:reduced_w in
        let assignment =
          Array.map (Option.map (fun local -> advertisers.(local))) reduced
        in
        { e_assignment = assignment; e_view = Reduced { advertisers; w = reduced_w; top } }

(* Flat pricing: GSP from the flat top lists, or pay-as-bid straight off
   the store.  VCG is rejected at engine construction (it needs the dense
   pricing view). *)
let price_flat x s ~pricing ~reserve ~keyword ~assignment ~winners =
  match pricing with
  | `Gsp -> gsp_from_top_flat x s ~reserve ~keyword ~assignment ~winners
  | `Pay_as_bid ->
      let store = Essa_strategy.Roi_fleet.store_of x.x_fleet in
      Array.mapi
        (fun j0 cell ->
          match cell with
          | None -> 0
          | Some adv ->
              Essa_strategy.State_store.flat_bid store ~keyword ~adv
              + (if j0 = 0 then
                   Essa_strategy.State_store.flat_premium store ~keyword ~adv
                 else 0))
        assignment
  | `Vcg -> assert false (* rejected by Engine.create_flat *)

let price_eval ~pricing x s ~reserve ~keyword ev =
  let assignment = ev.e_assignment in
  match ev.e_view with
  | Priced prices -> prices
  | Flat_top winners ->
      price_flat x s ~pricing ~reserve ~keyword ~assignment ~winners
  | (Full _ | Reduced _) as view -> (
      let ctr ~adv ~slot = x.x_ctr.(adv).(slot - 1) in
      let per_click_of_expected ~expected ~slot ~adv =
        let p = ctr ~adv ~slot in
        if p <= 0.0 || expected <= 0.0 then 0
        else int_of_float (Float.ceil ((expected /. p) -. 1e-9))
      in
      match pricing with
      | `Gsp -> (
          match view with
          | Reduced { top; _ } -> gsp_from_top x s ~reserve ~assignment ~top
          | Full w ->
              let prices_opt = Pricing.gsp_per_click ~w ~ctr ~assignment () in
              Array.map
                (function None -> 0 | Some p -> max p reserve)
                prices_opt
          | Flat_top _ | Priced _ -> assert false)
      | `Pay_as_bid ->
          Array.mapi
            (fun j0 cell ->
              match cell with
              | None -> 0
              | Some adv ->
                  (* Slot 1 winners owe their Click∧Slot1 premium too. *)
                  Essa_strategy.Roi_fleet.bid x.x_fleet ~adv ~keyword
                  + (if j0 = 0 then x.x_premiums.(keyword).(adv) else 0))
            assignment
      | `Vcg ->
          (* Solve on the pricing view (local indices), then translate. *)
          let view_w, to_local =
            match view with
            | Full w -> (w, fun i -> i)
            | Reduced { w; _ } ->
                (* [reduced_from_top] recorded each candidate's reduced
                   row in [local_of] for this very auction. *)
                (w, fun i -> s.local_of.(i))
            | Flat_top _ | Priced _ -> assert false
          in
          let local_assignment = Array.map (Option.map to_local) assignment in
          let base = Array.make (Array.length view_w) 0.0 in
          let payments =
            Pricing.vcg ~method_:`Rh ~w:view_w ~base ~assignment:local_assignment ()
          in
          Array.mapi
            (fun j0 cell ->
              match cell with
              | None -> 0
              | Some adv ->
                  per_click_of_expected ~expected:payments.(to_local adv)
                    ~slot:(j0 + 1) ~adv)
            assignment)

let cheap x ~reserve ~keyword =
  if x.x_is_flat then cheap_allocation_flat x ~reserve ~keyword
  else cheap_allocation x ~reserve ~keyword

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

    let cheap x ~keyword = cheap x ~reserve:x.x_reserve ~keyword
  end)
