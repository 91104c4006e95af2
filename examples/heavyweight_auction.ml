(* Beyond 1-dependence: the heavyweight/lightweight model of Section
   III-F.  Run with: dune exec examples/heavyweight_auction.exe

   A small company's clicks get diverted when a famous competitor sits
   above it; advertisers can bid on the class pattern itself ("pay extra
   if slot 1 hosts a lightweight").  Winner determination enumerates the
   2^k heavy-slot patterns and solves two matchings per pattern. *)

let k = 4

let () =
  Format.printf "=== Heavyweight-aware winner determination (Section III-F) ===@.@.";
  (* Advertisers 0-1 are famous (heavyweights); 2-4 are small shops. *)
  let classes =
    [|
      Essa_prob.Class_model.Heavy;
      Essa_prob.Class_model.Heavy;
      Essa_prob.Class_model.Light;
      Essa_prob.Class_model.Light;
      Essa_prob.Class_model.Light;
    |]
  in
  let base_ctr = [| 0.32; 0.28; 0.22; 0.18; 0.15 |] in
  (* Each heavyweight placed above an advertiser siphons 35% of its
     clicks; heavyweights themselves are immune (their brand carries). *)
  let ctr ~adv ~slot ~heavy_slots =
    let decay = 0.65 in
    let slot_factor = 1.0 -. (0.15 *. float_of_int (slot - 1)) in
    let heavies_above = ref 0 in
    for j = 0 to slot - 2 do
      if heavy_slots.(j) then incr heavies_above
    done;
    let diversion =
      if classes.(adv) = Essa_prob.Class_model.Heavy then 1.0
      else decay ** float_of_int !heavies_above
    in
    base_ctr.(adv) *. slot_factor *. diversion
  in
  let cvr ~adv:_ ~slot:_ ~heavy_slots:_ = 0.1 in
  let model = Essa_prob.Class_model.create ~k ~classes ~ctr ~cvr in

  (* Bids: click values, plus advertiser 2 pays a premium for a page whose
     top slot hosts a lightweight (i.e. no giant crowding it out), and
     heavyweight 0 pays for prestige placement. *)
  let bids =
    [|
      Essa_bidlang.Bids.of_strings [ ("click", 30); ("slot1", 4) ];
      Essa_bidlang.Bids.of_strings [ ("click", 26) ];
      Essa_bidlang.Bids.of_strings [ ("click", 24); ("light1", 6) ];
      Essa_bidlang.Bids.of_strings [ ("click", 18) ];
      Essa_bidlang.Bids.of_strings [ ("click", 14) ];
    |]
  in
  Array.iteri
    (fun i b ->
      Format.printf "advertiser %d (%s):@.%a@.@." i
        (match classes.(i) with
        | Essa_prob.Class_model.Heavy -> "heavyweight"
        | Essa_prob.Class_model.Light -> "lightweight")
        Essa_bidlang.Bids.pp b)
    bids;

  let result = Essa.Heavyweight.solve ~model ~bids () in
  let pattern_string =
    String.concat ""
      (List.map (fun h -> if h then "H" else "L") (Array.to_list result.heavy_slots))
  in
  Format.printf "Best heavy-slot pattern over all 2^%d = %d candidates: %s@." k (1 lsl k)
    pattern_string;
  Format.printf "Allocation: %a@." Essa_matching.Assignment.pp result.assignment;
  Format.printf "Expected revenue: %.2f cents@.@." result.value;

  (* Cross-check against exhaustive enumeration (small instance). *)
  let brute = Essa.Heavyweight.solve_brute ~model ~bids () in
  Format.printf "Brute-force value agrees: %b (%.2f)@."
    (abs_float (result.value -. brute.value) < 1e-6)
    brute.value;

  (* Contrast: a class-blind auction would mis-state every probability. *)
  Format.printf
    "@.Without the class model, the provider would assume no click diversion@.\
     and could place two heavyweights directly above every small shop.@."
