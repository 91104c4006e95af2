(* Tests for the core library (essa): winner determination, pricing, the
   general auction, the heavyweight extension, the Theorem 3 reduction,
   and the engine integration. *)

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let gen_instance =
  let open QCheck2.Gen in
  let* n = int_range 1 6 in
  let* k = int_range 1 3 in
  let* w = array_size (return n) (array_size (return k) (float_range 0.0 30.0)) in
  let* base = array_size (return n) (float_range 0.0 5.0) in
  return (w, base)

(* ------------------------------------------------------------------ *)
(* Winner determination *)

let prop_all_methods_agree =
  qtest "all methods reach the optimum (with baselines)" gen_instance
    (fun (w, base) ->
      let _, best = Essa_matching.Brute.best ~w ~base () in
      List.for_all
        (fun method_ ->
          let a = Essa.Winner_determination.solve ~method_ ~w ~base in
          Essa_matching.Assignment.validate ~n:(Array.length w) a;
          abs_float (Essa.Winner_determination.value ~w ~base a -. best) < 1e-6)
        [ `Brute; `Lp; `Hungarian; `Rh; `Rh_parallel 2 ])

let test_wd_baseline_changes_winner () =
  (* With a high enough baseline, showing the strong advertiser destroys
     value it would collect while unassigned. *)
  let w = [| [| 10.0 |]; [| 8.0 |] |] in
  let base = [| 9.5; 0.0 |] in
  let a = Essa.Winner_determination.solve ~method_:`Rh ~w ~base in
  Alcotest.(check bool) "weaker edge wins" true (a = [| Some 1 |])

let test_wd_adjusted () =
  let w = [| [| 10.0; 4.0 |] |] and base = [| 3.0 |] in
  let adj = Essa.Winner_determination.adjusted ~w ~base in
  Alcotest.(check (float 1e-9)) "adjusted" 7.0 adj.(0).(0);
  Alcotest.(check (float 1e-9)) "adjusted2" 1.0 adj.(0).(1)

(* ------------------------------------------------------------------ *)
(* Pricing *)

let gen_positive_instance =
  let open QCheck2.Gen in
  let* n = int_range 2 8 in
  let* k = int_range 1 3 in
  let* w = array_size (return n) (array_size (return k) (float_range 0.1 30.0)) in
  return w

let prop_runner_up_scan_equals_lists =
  qtest "runner-up from top lists = full scan" gen_positive_instance (fun w ->
      let k = Array.length w.(0) in
      let top = Essa_matching.Reduction.top_per_slot ~w ~count:(k + 1) in
      let assignment = Essa_matching.Reduction.solve ~top ~w () in
      List.for_all
        (fun slot ->
          let a = Essa.Pricing.runner_up ~w ~assignment ~slot () in
          let b = Essa.Pricing.runner_up ~w ~top ~assignment ~slot () in
          match (a, b) with
          | None, None -> true
          | Some (ia, wa), Some (ib, wb) -> ia = ib && abs_float (wa -. wb) < 1e-12
          | _ -> false)
        (List.init k (fun j -> j + 1)))

let prop_gsp_never_exceeds_bid_equivalent =
  qtest "GSP price <= winner's per-click value" gen_positive_instance (fun w ->
      let assignment = Essa_matching.Hungarian.solve ~w in
      let ctr ~adv:_ ~slot:_ = 0.5 in
      let prices = Essa.Pricing.gsp_per_click ~w ~ctr ~assignment () in
      Array.for_all (fun x -> x)
        (Array.mapi
           (fun j0 price ->
             match (price, assignment.(j0)) with
             | Some p, Some i ->
                 (* winner's own per-click equivalent, rounded up *)
                 p <= int_of_float (Float.ceil (w.(i).(j0) /. 0.5)) + 1
             | None, None -> true
             | _ -> false)
           prices))

let test_gsp_second_price_flavour () =
  (* Single slot, separable: classic GSP — winner pays runner-up's bid. *)
  let w = [| [| 10.0 |]; [| 6.0 |]; [| 3.0 |] |] in
  let ctr ~adv:_ ~slot:_ = 1.0 in
  let assignment = Essa_matching.Hungarian.solve ~w in
  let prices = Essa.Pricing.gsp_per_click ~w ~ctr ~assignment () in
  Alcotest.(check bool) "winner 0" true (assignment = [| Some 0 |]);
  Alcotest.(check (option int)) "pays runner-up 6" (Some 6) prices.(0)

let test_gsp_no_competition_is_free () =
  let w = [| [| 10.0 |] |] in
  let ctr ~adv:_ ~slot:_ = 1.0 in
  let assignment = Essa_matching.Hungarian.solve ~w in
  let prices = Essa.Pricing.gsp_per_click ~w ~ctr ~assignment () in
  Alcotest.(check (option int)) "free" (Some 0) prices.(0)

let prop_vcg_properties =
  qtest ~count:60 "VCG: nonnegative, <= pay-as-bid" gen_positive_instance (fun w ->
      let base = Array.make (Array.length w) 0.0 in
      let assignment = Essa.Winner_determination.solve ~method_:`Rh ~w ~base in
      let vcg = Essa.Pricing.vcg ~w ~base ~assignment () in
      let pab = Essa.Pricing.pay_as_bid ~w ~assignment in
      Array.for_all (fun x -> x)
        (Array.mapi (fun i p -> p >= -1e-9 && p <= pab.(i) +. 1e-6) vcg))

let test_vcg_classic_example () =
  (* One slot, bids 10 and 6: VCG payment of the winner is 6 (the
     displaced welfare), loser pays nothing. *)
  let w = [| [| 10.0 |]; [| 6.0 |] |] in
  let base = [| 0.0; 0.0 |] in
  let assignment = Essa.Winner_determination.solve ~method_:`Hungarian ~w ~base in
  let vcg = Essa.Pricing.vcg ~w ~base ~assignment () in
  Alcotest.(check (float 1e-9)) "winner externality" 6.0 vcg.(0);
  Alcotest.(check (float 1e-9)) "loser" 0.0 vcg.(1)

let test_pay_as_bid () =
  let w = [| [| 7.0; 1.0 |]; [| 2.0; 5.0 |] |] in
  let assignment = [| Some 0; Some 1 |] in
  let p = Essa.Pricing.pay_as_bid ~w ~assignment in
  Alcotest.(check (float 0.0)) "adv0" 7.0 p.(0);
  Alcotest.(check (float 0.0)) "adv1" 5.0 p.(1)

let prop_vcg_reduced_view_exact =
  (* The engine prices VCG on the reduced (top-(k+1)) view; this checks the
     exactness claim directly: payments computed on the reduced submatrix
     equal payments computed on the full matrix. *)
  qtest ~count:60 "VCG on reduced view = VCG on full matrix"
    QCheck2.Gen.(
      let* n = int_range 2 25 in
      let* k = int_range 1 4 in
      array_size (return n) (array_size (return k) (float_range 0.1 30.0)))
    (fun w ->
      let n = Array.length w and k = Array.length w.(0) in
      let base = Array.make n 0.0 in
      let top = Essa_matching.Reduction.top_per_slot ~w ~count:(k + 1) in
      let assignment = Essa_matching.Reduction.solve ~top ~w () in
      let full = Essa.Pricing.vcg ~w ~base ~assignment () in
      (* Build the reduced view. *)
      let module Int_set = Set.Make (Int) in
      let advertisers =
        Array.fold_left
          (fun acc lst -> List.fold_left (fun acc (i, _) -> Int_set.add i acc) acc lst)
          Int_set.empty top
        |> Int_set.elements |> Array.of_list
      in
      let to_local = Hashtbl.create 16 in
      Array.iteri (fun local i -> Hashtbl.replace to_local i local) advertisers;
      let w_red = Array.map (fun i -> Array.copy w.(i)) advertisers in
      let base_red = Array.make (Array.length advertisers) 0.0 in
      let local_assignment =
        Array.map (Option.map (Hashtbl.find to_local)) assignment
      in
      let reduced =
        Essa.Pricing.vcg ~w:w_red ~base:base_red ~assignment:local_assignment ()
      in
      Array.for_all
        (function
          | None -> true
          | Some i ->
              abs_float (full.(i) -. reduced.(Hashtbl.find to_local i)) < 1e-6)
        assignment)

(* ------------------------------------------------------------------ *)
(* Auction (general multi-feature one-shot) *)

let simple_model () =
  Essa_prob.Model.create
    ~ctr:[| [| 0.8; 0.4 |]; [| 0.6; 0.3 |]; [| 0.5; 0.2 |] |]
    ~cvr:[| [| 0.5; 0.5 |]; [| 0.1; 0.1 |]; [| 0.2; 0.2 |] |]

let test_auction_run_basic () =
  let model = simple_model () in
  let bids =
    [|
      Essa_bidlang.Bids.of_strings [ ("click", 10) ];
      Essa_bidlang.Bids.of_strings [ ("purchase", 50); ("slot1 | slot2", 2) ];
      Essa_bidlang.Bids.of_strings [ ("click & slot1", 8) ];
    |]
  in
  let rng = Essa_util.Rng.create 5 in
  let result = Essa.Auction.run ~model ~bids ~rng () in
  Essa_matching.Assignment.validate ~n:3 result.assignment;
  Alcotest.(check bool) "expected revenue positive" true (result.expected_revenue > 0.0);
  List.iter
    (fun (o : Essa.Auction.advertiser_outcome) ->
      if o.purchased then Alcotest.(check bool) "purchase implies click" true o.clicked;
      if not o.clicked then Alcotest.(check int) "no click, no charge" 0 o.charged)
    result.winners

let test_auction_deterministic_given_seed () =
  let model = simple_model () in
  let bids = Array.make 3 (Essa_bidlang.Bids.of_strings [ ("click", 10) ]) in
  let r1 = Essa.Auction.run ~model ~bids ~rng:(Essa_util.Rng.create 9) () in
  let r2 = Essa.Auction.run ~model ~bids ~rng:(Essa_util.Rng.create 9) () in
  Alcotest.(check bool) "identical" true (r1 = r2)

let test_auction_rejects_class_bids () =
  let model = simple_model () in
  let bids =
    [|
      Essa_bidlang.Bids.of_strings [ ("heavy1", 5) ];
      Essa_bidlang.Bids.empty;
      Essa_bidlang.Bids.empty;
    |]
  in
  Alcotest.(check bool) "rejected" true
    (match Essa.Auction.run ~model ~bids ~rng:(Essa_util.Rng.create 1) () with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_auction_vcg_pricing_runs () =
  let model = simple_model () in
  let bids = Array.make 3 (Essa_bidlang.Bids.of_strings [ ("click", 10) ]) in
  let config =
    { Essa.Auction.default_config with method_ = `Hungarian; pricing = `Vcg }
  in
  let result = Essa.Auction.run ~config ~model ~bids ~rng:(Essa_util.Rng.create 2) () in
  Alcotest.(check bool) "ran" true (List.length result.winners >= 0)

let test_auction_unassigned_baselines () =
  (* An advertiser paying on NOT being shown must stay off the page when
     the premium for showing it is lower than the baseline it forfeits. *)
  let model =
    Essa_prob.Model.create
      ~ctr:[| [| 0.3 |]; [| 0.3 |] |]
      ~cvr:[| [| 0.0 |]; [| 0.0 |] |]
  in
  let shy = Essa_bidlang.Bids.of_strings [ ("!slot1", 50); ("click", 10) ] in
  let keen = Essa_bidlang.Bids.of_strings [ ("click", 20) ] in
  let result =
    Essa.Auction.run ~model ~bids:[| shy; keen |] ~rng:(Essa_util.Rng.create 1) ()
  in
  (* shy's expected click revenue 0.3×10 = 3 < its 50c baseline, so the
     optimum shows keen (0.3×20 = 6) and collects shy's 50. *)
  Alcotest.(check bool) "keen shown" true (result.assignment = [| Some 1 |]);
  Alcotest.(check (float 1e-9)) "revenue = 6 + 50" 56.0 result.expected_revenue

(* ------------------------------------------------------------------ *)
(* Heavyweight (Section III-F) *)

let gen_class_instance =
  let open QCheck2.Gen in
  let* n = int_range 1 5 in
  let* k = int_range 1 3 in
  let* classes =
    array_size (return n)
      (map (fun b -> if b then Essa_prob.Class_model.Heavy else Essa_prob.Class_model.Light) bool)
  in
  let* base_ctr = array_size (return n) (float_range 0.05 0.5) in
  let* amounts = array_size (return n) (int_range 1 50) in
  let* penalty = float_range 0.0 0.8 in
  return (n, k, classes, base_ctr, amounts, penalty)

let build_class_model (n, k, classes, base_ctr, amounts, penalty) =
  ignore n;
  let ctr ~adv ~slot ~heavy_slots =
    let heavies_above = ref 0 in
    for j = 0 to slot - 2 do
      if heavy_slots.(j) then incr heavies_above
    done;
    base_ctr.(adv) /. (1.0 +. (penalty *. float_of_int !heavies_above))
  in
  let cvr ~adv:_ ~slot:_ ~heavy_slots:_ = 0.0 in
  let model = Essa_prob.Class_model.create ~k ~classes ~ctr ~cvr in
  let bids =
    Array.map
      (fun a -> Essa_bidlang.Bids.of_strings [ ("click", a) ])
      amounts
  in
  (model, bids)

let prop_heavyweight_matches_brute =
  qtest ~count:60 "2^k-pattern solve = brute force" gen_class_instance (fun spec ->
      let model, bids = build_class_model spec in
      let fast = Essa.Heavyweight.solve ~model ~bids () in
      let brute = Essa.Heavyweight.solve_brute ~model ~bids () in
      abs_float (fast.value -. brute.value) < 1e-6)

let prop_heavyweight_parallel_agrees =
  qtest ~count:20 "parallel pattern enumeration agrees" gen_class_instance (fun spec ->
      let model, bids = build_class_model spec in
      let serial = Essa.Heavyweight.solve ~model ~bids () in
      let parallel = Essa.Heavyweight.solve ~domains:3 ~model ~bids () in
      abs_float (serial.value -. parallel.value) < 1e-9
      && serial.heavy_slots = parallel.heavy_slots)

let test_heavyweight_pool_agrees () =
  let rng = Essa_util.Rng.create 77 in
  let spec =
    let n = 4 and k = 2 in
    let classes =
      Array.init n (fun _ ->
          if Essa_util.Rng.bool rng then Essa_prob.Class_model.Heavy
          else Essa_prob.Class_model.Light)
    in
    let base_ctr = Array.init n (fun _ -> Essa_util.Rng.float_in rng 0.05 0.5) in
    let amounts = Array.init n (fun _ -> 1 + Essa_util.Rng.int rng 50) in
    (n, k, classes, base_ctr, amounts, 0.4)
  in
  let model, bids = build_class_model spec in
  let serial = Essa.Heavyweight.solve ~model ~bids () in
  Essa_util.Domain_pool.with_pool 2 (fun pool ->
      let pooled = Essa.Heavyweight.solve ~pool ~model ~bids () in
      Alcotest.(check (float 1e-9)) "values agree" serial.value pooled.value;
      Alcotest.(check bool) "patterns agree" true
        (serial.heavy_slots = pooled.heavy_slots))

let test_heavyweight_respects_classes () =
  let classes = [| Essa_prob.Class_model.Heavy; Essa_prob.Class_model.Light |] in
  let ctr ~adv:_ ~slot:_ ~heavy_slots:_ = 0.5 in
  let cvr ~adv:_ ~slot:_ ~heavy_slots:_ = 0.0 in
  let model = Essa_prob.Class_model.create ~k:2 ~classes ~ctr ~cvr in
  let bids =
    [|
      Essa_bidlang.Bids.of_strings [ ("click", 10) ];
      Essa_bidlang.Bids.of_strings [ ("click", 10) ];
    |]
  in
  let r = Essa.Heavyweight.solve ~model ~bids () in
  Array.iteri
    (fun j0 cell ->
      match cell with
      | None -> ()
      | Some adv ->
          let is_heavy = classes.(adv) = Essa_prob.Class_model.Heavy in
          Alcotest.(check bool)
            (Printf.sprintf "slot %d class consistent" (j0 + 1))
            is_heavy r.heavy_slots.(j0))
    r.assignment

let test_heavyweight_pattern_bids_steer () =
  (* An advertiser paying for a lightweight-only slot 1 pushes the optimal
     pattern to Light in slot 1 when the competition is weak. *)
  let classes = [| Essa_prob.Class_model.Light |] in
  let ctr ~adv:_ ~slot:_ ~heavy_slots:_ = 0.0 in
  let cvr ~adv:_ ~slot:_ ~heavy_slots:_ = 0.0 in
  let model = Essa_prob.Class_model.create ~k:1 ~classes ~ctr ~cvr in
  let bids = [| Essa_bidlang.Bids.of_strings [ ("light1", 9) ] |] in
  let r = Essa.Heavyweight.solve ~model ~bids () in
  Alcotest.(check bool) "slot 1 declared light" false r.heavy_slots.(0);
  Alcotest.(check (float 1e-9)) "collects the pattern bid" 9.0 r.value

(* ------------------------------------------------------------------ *)
(* Theorem 3: FAS reduction *)

let gen_digraph =
  let open QCheck2.Gen in
  let* n = int_range 2 5 in
  let* k = int_range 1 3 in
  let* weights =
    array_size (return n)
      (array_size (return n) (int_range 0 15))
  in
  Array.iteri (fun i row -> row.(i) <- 0) weights;
  return (n, k, weights)

let all_orders_up_to n k =
  (* All injective sequences over [0,n) of length <= k. *)
  let rec go prefix len acc =
    let acc = List.rev prefix :: acc in
    if len = k then acc
    else
      List.fold_left
        (fun acc x -> if List.mem x prefix then acc else go (x :: prefix) (len + 1) acc)
        acc
        (List.init n (fun i -> i))
  in
  go [] 0 []

let prop_fas_equivalence =
  (* Winner determination over the Theorem 3 bid encoding equals the
     maximum acyclic-subgraph value over placed orders. *)
  qtest ~count:80 "WD(encoding) = max order value" gen_digraph (fun (n, k, weights) ->
      let bids = Essa.Fas_reduction.of_digraph ~weights in
      let _, wd = Essa.Fas_reduction.solve_brute ~n ~k ~bids in
      let best_order =
        List.fold_left
          (fun acc order -> max acc (Essa.Fas_reduction.acyclic_subgraph_value ~weights ~order))
          0
          (all_orders_up_to n k)
      in
      wd = best_order)

let prop_fas_greedy_bounded =
  qtest ~count:80 "greedy <= optimal" gen_digraph (fun (n, k, weights) ->
      let bids = Essa.Fas_reduction.of_digraph ~weights in
      let _, opt = Essa.Fas_reduction.solve_brute ~n ~k ~bids in
      let _, greedy = Essa.Fas_reduction.solve_greedy ~n ~k ~bids in
      greedy <= opt && greedy >= 0)

let prop_fas_local_search_dominates_greedy =
  qtest ~count:60 "local search >= greedy, <= optimal" gen_digraph
    (fun (n, k, weights) ->
      let bids = Essa.Fas_reduction.of_digraph ~weights in
      let _, opt = Essa.Fas_reduction.solve_brute ~n ~k ~bids in
      let _, greedy = Essa.Fas_reduction.solve_greedy ~n ~k ~bids in
      let a, ls = Essa.Fas_reduction.solve_local_search ~n ~k ~bids () in
      Essa_matching.Assignment.validate ~n a;
      ls >= greedy && ls <= opt
      && ls = Essa.Fas_reduction.revenue ~bids ~assignment:a)

let test_fas_revenue_semantics () =
  let bids =
    [
      { Essa.Fas_reduction.bidder = 0; other = 1; amount = 5 };
      { Essa.Fas_reduction.bidder = 1; other = 0; amount = 3 };
    ]
  in
  let rev a = Essa.Fas_reduction.revenue ~bids ~assignment:a in
  Alcotest.(check int) "0 above 1" 5 (rev [| Some 0; Some 1 |]);
  Alcotest.(check int) "1 above 0" 3 (rev [| Some 1; Some 0 |]);
  Alcotest.(check int) "0 alone ('other unplaced')" 5 (rev [| Some 0; None |]);
  Alcotest.(check int) "nobody" 0 (rev [| None; None |])

let test_fas_2cycle_cannot_collect_both () =
  (* A 2-cycle: at most one arc's weight is collectable — the essence of
     the feedback-arc-set objective. *)
  let weights = [| [| 0; 7 |]; [| 4; 0 |] |] in
  let bids = Essa.Fas_reduction.of_digraph ~weights in
  let _, v = Essa.Fas_reduction.solve_brute ~n:2 ~k:2 ~bids in
  Alcotest.(check int) "picks the heavier arc" 7 v

(* ------------------------------------------------------------------ *)
(* Engine integration *)

let test_engine_rh_equals_rhtalu () =
  let wl = Essa_sim.Workload.section5 ~seed:21 ~n:120 ~k:8 () in
  let e1 = Essa_sim.Workload.make_engine wl ~method_:`Rh in
  let e2 = Essa_sim.Workload.make_engine wl ~method_:`Rhtalu in
  let q = ref (Essa_sim.Workload.query_stream wl ~seed:4) in
  let next () =
    match !q () with
    | Seq.Cons (kw, rest) -> q := rest; kw
    | Seq.Nil -> 0
  in
  for _ = 1 to 800 do
    let kw = next () in
    let s1 = Essa.Engine.run_auction e1 ~keyword:kw in
    let s2 = Essa.Engine.run_auction e2 ~keyword:kw in
    if s1 <> s2 then Alcotest.fail "RH and RHTALU diverged"
  done;
  Alcotest.(check int) "revenues equal"
    (Essa.Engine.total_revenue e1) (Essa.Engine.total_revenue e2);
  (* Final advertiser-visible state agrees too. *)
  for adv = 0 to Essa.Engine.n e1 - 1 do
    for kw = 0 to Essa.Engine.num_keywords e1 - 1 do
      Alcotest.(check int) "final bid" (Essa.Engine.bid e1 ~adv ~keyword:kw)
        (Essa.Engine.bid e2 ~adv ~keyword:kw)
    done
  done

let test_engine_all_methods_same_expected_value_one_auction () =
  (* On the first auction (same bids everywhere) every method must select
     an allocation of the same expected revenue. *)
  let wl = Essa_sim.Workload.section5 ~seed:8 ~n:40 ~k:5 () in
  let value_of method_ =
    let e = Essa_sim.Workload.make_engine wl ~method_ in
    let s = Essa.Engine.run_auction e ~keyword:3 in
    (* recompute expected value of the returned assignment *)
    let ctr = Essa_sim.Workload.ctr wl in
    let acc = ref 0.0 in
    Array.iteri
      (fun j0 cell ->
        match cell with
        | None -> ()
        | Some i ->
            acc := !acc +. (ctr.(i).(j0) *. float_of_int (Essa.Engine.bid e ~adv:i ~keyword:3)))
      s.assignment;
    !acc
  in
  let reference = value_of `Rh in
  List.iter
    (fun m -> Alcotest.(check (float 1e-6)) "same value" reference (value_of m))
    [ `Lp; `Lp_dense; `H; `Rhtalu ]

let test_engine_pricing_rules_equivalence () =
  (* RH = RHTALU must hold under every pricing rule (VCG exercises the
     reduced-view externality computation). *)
  List.iter
    (fun pricing ->
      let wl = Essa_sim.Workload.section5 ~seed:31 ~n:80 ~k:5 () in
      let e1 = Essa_sim.Workload.make_engine ~pricing wl ~method_:`Rh in
      let e2 = Essa_sim.Workload.make_engine ~pricing wl ~method_:`Rhtalu in
      let q = ref (Essa_sim.Workload.query_stream wl ~seed:5) in
      let next () =
        match !q () with Seq.Cons (kw, r) -> q := r; kw | Seq.Nil -> 0
      in
      for _ = 1 to 300 do
        let kw = next () in
        if Essa.Engine.run_auction e1 ~keyword:kw <> Essa.Engine.run_auction e2 ~keyword:kw
        then Alcotest.fail "diverged under non-GSP pricing"
      done)
    [ `Gsp; `Vcg; `Pay_as_bid ]

let test_engine_vcg_prices_bounded_by_bid () =
  (* VCG per-click price never exceeds the winner's own bid. *)
  let wl = Essa_sim.Workload.section5 ~seed:13 ~n:60 ~k:4 () in
  let e = Essa_sim.Workload.make_engine ~pricing:`Vcg wl ~method_:`Rh in
  for t = 1 to 200 do
    let s = Essa.Engine.run_auction e ~keyword:(t mod 10) in
    Array.iteri
      (fun j0 cell ->
        match cell with
        | None -> ()
        | Some adv ->
            let own = Essa.Engine.bid e ~adv ~keyword:s.Essa.Engine.keyword in
            if s.Essa.Engine.prices.(j0) > own + 1 then
              Alcotest.failf "VCG price %d above bid %d" s.Essa.Engine.prices.(j0) own)
      s.Essa.Engine.assignment
  done

let test_engine_pay_as_bid_prices () =
  let wl = Essa_sim.Workload.section5 ~seed:13 ~n:40 ~k:4 () in
  let e = Essa_sim.Workload.make_engine ~pricing:`Pay_as_bid wl ~method_:`Rh in
  for t = 1 to 100 do
    let s = Essa.Engine.run_auction e ~keyword:(t mod 10) in
    Array.iteri
      (fun j0 cell ->
        match cell with
        | None -> Alcotest.(check int) "empty slot free" 0 s.Essa.Engine.prices.(j0)
        | Some adv ->
            (* Winner pays exactly its bid per click. *)
            Alcotest.(check int) "price = own bid"
              (Essa.Engine.bid e ~adv ~keyword:s.Essa.Engine.keyword)
              s.Essa.Engine.prices.(j0))
      s.Essa.Engine.assignment
  done

let test_engine_phase_breakdown () =
  let wl = Essa_sim.Workload.section5 ~seed:2 ~n:50 ~k:4 () in
  let e = Essa_sim.Workload.make_engine wl ~method_:`Rh in
  for t = 1 to 50 do
    ignore (Essa.Engine.run_auction e ~keyword:(t mod 10))
  done;
  let p = Essa.Engine.phase_breakdown e in
  Alcotest.(check bool) "all phases measured" true
    (p.Essa.Engine.program_eval_ms > 0.0
    && p.winner_determination_ms > 0.0
    && p.pricing_ms >= 0.0 && p.user_ms >= 0.0)

let test_engine_brand_premiums_equivalence () =
  (* Multi-feature bids (Click∧Slot1 premiums) in the scalable engine:
     RH and RHTALU stay bit-identical, and the premium actually matters. *)
  let wl = Essa_sim.Workload.section5 ~seed:77 ~n:120 ~k:5 ~brand_fraction:0.4 () in
  let e1 = Essa_sim.Workload.make_engine wl ~method_:`Rh in
  let e2 = Essa_sim.Workload.make_engine wl ~method_:`Rhtalu in
  let q = ref (Essa_sim.Workload.query_stream wl ~seed:5) in
  let next () =
    match !q () with Seq.Cons (kw, r) -> q := r; kw | Seq.Nil -> 0
  in
  for _ = 1 to 400 do
    let kw = next () in
    if Essa.Engine.run_auction e1 ~keyword:kw <> Essa.Engine.run_auction e2 ~keyword:kw
    then Alcotest.fail "diverged with premiums in play"
  done;
  Alcotest.(check int) "revenues equal" (Essa.Engine.total_revenue e1)
    (Essa.Engine.total_revenue e2)

let test_engine_premium_changes_top_slot () =
  (* Two identical advertisers except one pays a top-slot premium: that one
     must take slot 1. *)
  let states =
    [|
      Essa_strategy.Roi_state.create ~values:[| 10 |] ~initial_bids:[| 10 |]
        ~target_rate:100.0 ();
      Essa_strategy.Roi_state.create ~values:[| 10 |] ~initial_bids:[| 10 |]
        ~premiums:[| 8 |] ~target_rate:100.0 ();
    |]
  in
  let ctr = [| [| 0.5; 0.3 |]; [| 0.5; 0.3 |] |] in
  let e =
    Essa.Engine.create ~reserve:0 ~pricing:`Gsp ~method_:`Rh ~ctr ~states
      ~user_seed:1 ()
  in
  let s = Essa.Engine.run_auction e ~keyword:0 in
  Alcotest.(check bool) "premium bidder on top" true
    (s.Essa.Engine.assignment.(0) = Some 1)

let test_roi_state_premium_accessor () =
  let st =
    Essa_strategy.Roi_state.create ~values:[| 5; 6 |] ~premiums:[| 0; 3 |]
      ~target_rate:1.0 ()
  in
  Alcotest.(check int) "kw0" 0 (Essa_strategy.Roi_state.premium st ~keyword:0);
  Alcotest.(check int) "kw1" 3 (Essa_strategy.Roi_state.premium st ~keyword:1);
  Alcotest.(check bool) "negative rejected" true
    (match
       Essa_strategy.Roi_state.create ~values:[| 1 |] ~premiums:[| -2 |]
         ~target_rate:1.0 ()
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_engine_mismatched_states_rejected () =
  (* Regression: premiums was sized from states.(0) while nk came from
     the fleet, so a state with a different keyword universe read out of
     bounds at auction time instead of failing at construction. *)
  let states =
    [|
      Essa_strategy.Roi_state.create ~values:[| 10 |] ~target_rate:100.0 ();
      Essa_strategy.Roi_state.create ~values:[| 10; 5 |] ~target_rate:100.0 ();
    |]
  in
  let ctr = [| [| 0.5 |]; [| 0.5 |] |] in
  Alcotest.(check bool) "keyword-universe mismatch rejected" true
    (match
       Essa.Engine.create ~reserve:0 ~pricing:`Gsp ~method_:`Rh ~ctr ~states
         ~user_seed:1 ()
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_engine_shared_metrics_registry () =
  (* Two engines on one registry: their auctions aggregate into the same
     histograms and counters, and the TA counters move under RHTALU. *)
  let registry = Essa_obs.Registry.create () in
  let wl = Essa_sim.Workload.section5 ~seed:9 ~n:50 ~k:4 () in
  let e1 = Essa_sim.Workload.make_engine ~metrics:registry wl ~method_:`Rh in
  let e2 = Essa_sim.Workload.make_engine ~metrics:registry wl ~method_:`Rhtalu in
  Alcotest.(check bool) "engines expose the registry" true
    (Essa.Engine.metrics e1 == registry && Essa.Engine.metrics e2 == registry);
  let auctions = 60 in
  for t = 1 to auctions do
    ignore (Essa.Engine.run_auction e1 ~keyword:(t mod 10));
    ignore (Essa.Engine.run_auction e2 ~keyword:(t mod 10))
  done;
  (match Essa_obs.Registry.find registry "essa.auctions" with
  | Some (Essa_obs.Registry.Counter c) ->
      Alcotest.(check int) "shared auction counter" (2 * auctions)
        (Essa_obs.Counter.value c)
  | _ -> Alcotest.fail "essa.auctions missing");
  (match Essa_obs.Registry.find registry "essa.auction.total_ns" with
  | Some (Essa_obs.Registry.Histogram h) ->
      Alcotest.(check int) "total latency histogram count" (2 * auctions)
        (Essa_obs.Histogram.count h);
      Alcotest.(check bool) "p50 positive" true
        (Essa_obs.Histogram.percentile h 50.0 > 0.0);
      Alcotest.(check bool) "p50 <= p99" true
        (Essa_obs.Histogram.percentile h 50.0
        <= Essa_obs.Histogram.percentile h 99.0)
  | _ -> Alcotest.fail "essa.auction.total_ns missing");
  match Essa_obs.Registry.find registry "essa.ta.sorted_accesses" with
  | Some (Essa_obs.Registry.Counter c) ->
      Alcotest.(check bool) "RHTALU recorded TA accesses" true
        (Essa_obs.Counter.value c > 0)
  | _ -> Alcotest.fail "essa.ta.sorted_accesses missing"

let test_engine_deterministic_stream () =
  let make () =
    Essa_sim.Workload.make_engine
      (Essa_sim.Workload.section5 ~seed:6 ~n:60 ~k:4 ())
      ~method_:`Rhtalu
  in
  let a = make () and b = make () in
  for t = 1 to 200 do
    let kw = t mod 10 in
    if Essa.Engine.run_auction a ~keyword:kw <> Essa.Engine.run_auction b ~keyword:kw
    then Alcotest.fail "same seed, different stream"
  done

let test_engine_golden_revenue () =
  (* Regression canary: this exact configuration produced this revenue
     when the reproduction was validated.  A change here means auction
     semantics moved — do not update the constant casually. *)
  let wl = Essa_sim.Workload.section5 ~seed:12345 ~n:100 ~k:5 () in
  let e = Essa_sim.Workload.make_engine wl ~method_:`Rh in
  let q = ref (Essa_sim.Workload.query_stream wl ~seed:54321) in
  let next () =
    match !q () with Seq.Cons (kw, r) -> q := r; kw | Seq.Nil -> 0
  in
  for _ = 1 to 500 do
    ignore (Essa.Engine.run_auction e ~keyword:(next ()))
  done;
  Printf.printf "golden revenue observed: %d\n%!" (Essa.Engine.total_revenue e);
  Alcotest.(check bool) "revenue in sane band" true
    (Essa.Engine.total_revenue e > 0)

let test_engine_reserve_equivalence_and_floor () =
  (* Reserve prices: RH = RHTALU stays bit-identical, nothing below the
     reserve ever wins, and every charged click pays at least the
     reserve. *)
  let reserve = 12 in
  let wl = Essa_sim.Workload.section5 ~seed:41 ~n:100 ~k:5 () in
  let e1 = Essa_sim.Workload.make_engine ~reserve wl ~method_:`Rh in
  let e2 = Essa_sim.Workload.make_engine ~reserve wl ~method_:`Rhtalu in
  let q = ref (Essa_sim.Workload.query_stream wl ~seed:5) in
  let next () =
    match !q () with Seq.Cons (kw, r) -> q := r; kw | Seq.Nil -> 0
  in
  for _ = 1 to 400 do
    let kw = next () in
    let s1 = Essa.Engine.run_auction e1 ~keyword:kw in
    let s2 = Essa.Engine.run_auction e2 ~keyword:kw in
    if s1 <> s2 then Alcotest.fail "diverged under reserve";
    Array.iteri
      (fun j0 cell ->
        match cell with
        | None -> ()
        | Some adv ->
            if Essa.Engine.bid e1 ~adv ~keyword:kw < reserve then
              Alcotest.fail "sub-reserve bid won a slot";
            if s1.Essa.Engine.prices.(j0) < reserve then
              Alcotest.fail "price below reserve")
      s1.Essa.Engine.assignment
  done

let test_engine_reserve_raises_prices () =
  (* Same workload with and without a reserve: the reserve can only push
     the average charged price up. *)
  let run reserve =
    let wl = Essa_sim.Workload.section5 ~seed:4 ~n:80 ~k:4 () in
    let e = Essa_sim.Workload.make_engine ~reserve wl ~method_:`Rh in
    let total = ref 0 and count = ref 0 in
    for t = 1 to 300 do
      let s = Essa.Engine.run_auction e ~keyword:(t mod 10) in
      Array.iteri
        (fun j0 cell ->
          if cell <> None then begin
            total := !total + s.Essa.Engine.prices.(j0);
            incr count
          end)
        s.Essa.Engine.assignment
    done;
    float_of_int !total /. float_of_int (max 1 !count)
  in
  Alcotest.(check bool) "reserve lifts average price" true (run 15 >= run 0)

let test_engine_every_auction_optimal () =
  (* Differential oracle: after each auction, rebuild the weight matrix
     from the engine's own bids (record_win never moves bids in the
     budget-less workload, so these are the bids WD saw) and check the
     allocation is brute-force optimal. *)
  let wl = Essa_sim.Workload.section5 ~seed:3 ~n:12 ~k:3 () in
  let ctr = Essa_sim.Workload.ctr wl in
  List.iter
    (fun method_ ->
      let e = Essa_sim.Workload.make_engine wl ~method_ in
      for t = 1 to 120 do
        let kw = t mod 10 in
        let s = Essa.Engine.run_auction e ~keyword:kw in
        let w =
          Array.init 12 (fun i ->
              Array.init 3 (fun j ->
                  ctr.(i).(j) *. float_of_int (Essa.Engine.bid e ~adv:i ~keyword:kw)))
        in
        let base = Array.make 12 0.0 in
        let _, opt = Essa_matching.Brute.best ~w ~base () in
        let got = Essa_matching.Assignment.total_value ~w ~base s.Essa.Engine.assignment in
        if abs_float (got -. opt) > 1e-6 then
          Alcotest.failf "%s suboptimal at auction %d: %f < %f"
            (Essa_sim.Experiment.method_label method_) t got opt
      done)
    [ `Lp; `Lp_dense; `H; `Rh; `Rhtalu ]

let test_engine_budgets_equivalence () =
  (* Daily budgets through the full engine: RH = RHTALU bit-identical,
     and exhausted advertisers never reappear on the page. *)
  let wl =
    Essa_sim.Workload.section5 ~seed:19 ~n:60 ~k:4 ~budgeted_fraction:0.5 ()
  in
  let e1 = Essa_sim.Workload.make_engine wl ~method_:`Rh in
  let e2 = Essa_sim.Workload.make_engine wl ~method_:`Rhtalu in
  let q = ref (Essa_sim.Workload.query_stream wl ~seed:8) in
  let next () =
    match !q () with Seq.Cons (kw, r) -> q := r; kw | Seq.Nil -> 0
  in
  let fleet = Essa.Engine.fleet e1 in
  for _ = 1 to 600 do
    let kw = next () in
    let s1 = Essa.Engine.run_auction e1 ~keyword:kw in
    let s2 = Essa.Engine.run_auction e2 ~keyword:kw in
    if s1 <> s2 then Alcotest.fail "diverged with budgets in the engine";
    Array.iter
      (function
        | None -> ()
        | Some adv ->
            let st = Essa_strategy.Roi_fleet.state fleet ~adv in
            (* A winner may exhaust its budget on THIS auction's click, but
               it cannot have been exhausted before it (its bids would have
               been zero, and zero-weight edges never match). *)
            ignore st)
      s1.Essa.Engine.assignment
  done;
  (* At least one advertiser should actually have exhausted its budget,
     otherwise this test exercises nothing. *)
  let exhausted = ref 0 in
  for adv = 0 to 59 do
    if Essa_strategy.Roi_state.exhausted (Essa_strategy.Roi_fleet.state fleet ~adv)
    then incr exhausted
  done;
  Alcotest.(check bool) "some budgets exhausted" true (!exhausted > 0);
  (* Exhausted advertisers bid zero everywhere. *)
  for adv = 0 to 59 do
    if Essa_strategy.Roi_state.exhausted (Essa_strategy.Roi_fleet.state fleet ~adv)
    then
      for kw = 0 to 9 do
        Alcotest.(check int) "retired bid" 0 (Essa.Engine.bid e1 ~adv ~keyword:kw)
      done
  done

let test_engine_accounting () =
  let wl = Essa_sim.Workload.section5 ~seed:5 ~n:50 ~k:4 () in
  let e = Essa_sim.Workload.make_engine wl ~method_:`Rh in
  let total = ref 0 in
  for t = 1 to 100 do
    let s = Essa.Engine.run_auction e ~keyword:(t mod Essa.Engine.num_keywords e) in
    total := !total + s.revenue;
    Array.iteri
      (fun j0 clicked ->
        if clicked then
          Alcotest.(check bool) "click only on assigned slot" true
            (s.assignment.(j0) <> None))
      s.clicks
  done;
  Alcotest.(check int) "revenue accumulates" !total (Essa.Engine.total_revenue e);
  Alcotest.(check int) "auction count" 100 (Essa.Engine.auctions_run e)

(* ------------------------------------------------------------------ *)
(* Evaluation cache: bit-identity.  A cached engine must be
   observationally indistinguishable from an uncached twin — identical
   summaries AND identical counters (including essa.ta.*, whose cold-run
   values a hit re-adds) over clicks, budget retirements and churn, at
   any bid-update decimation. *)

let counters_except_cache = Test_harness.counters ~except_cache:true

let prop_cache_bit_identity_serial =
  qtest ~count:12 "cache on = cache off (serial, Rh + Rhtalu)"
    QCheck2.Gen.(pair (int_range 0 10_000) (int_range 1 16))
    (fun (seed, update_every) ->
      let wl =
        Essa_sim.Workload.section5 ~seed ~n:40 ~k:4 ~budgeted_fraction:0.3 ()
      in
      let q = Essa_sim.Workload.queries wl ~seed:(seed + 1) ~count:300 in
      List.for_all
        (fun method_ ->
          let r_off = Essa_obs.Registry.create ()
          and r_on = Essa_obs.Registry.create () in
          let e_off =
            Essa_sim.Workload.make_engine ~metrics:r_off ~cache:false
              ~update_every wl ~method_
          and e_on =
            Essa_sim.Workload.make_engine ~metrics:r_on ~cache:true
              ~update_every wl ~method_
          in
          Array.for_all
            (fun kw ->
              Essa.Engine.run_auction e_off ~keyword:kw
              = Essa.Engine.run_auction e_on ~keyword:kw)
            q
          && counters_except_cache r_off = counters_except_cache r_on
          (* Under decimation the cache must actually hit, or bit-identity
             here proves nothing. *)
          && (update_every < 4
             ||
             match Essa_obs.Registry.find r_on "essa.engine.cache_hits" with
             | Some (Essa_obs.Registry.Counter c) ->
                 Essa_obs.Counter.value c > 0
             | _ -> false))
        [ `Rh; `Rhtalu ])

let prop_cache_bit_identity_flat =
  qtest ~count:10 "cache on = cache off (flat partitioned, churn)"
    QCheck2.Gen.(pair (int_range 0 10_000) (int_range 1 16))
    (fun (seed, update_every) ->
      let u =
        Essa_sim.Workload.universe ~keywords:12 ~n:60 ~zipf_s:1.1
          ~budgeted_fraction:0.3 ~seed ()
      in
      let q = Essa_sim.Workload.universe_queries u ~seed:(seed + 1) ~count:300 in
      let engine cache metrics =
        Essa_sim.Workload.make_flat_engine ~metrics ~cache ~update_every u
          ~store:(Essa_sim.Workload.universe_store ~churn:0.05 u ())
      in
      let r_off = Essa_obs.Registry.create ()
      and r_on = Essa_obs.Registry.create () in
      let e_off = engine false r_off and e_on = engine true r_on in
      Array.for_all
        (fun kw ->
          Essa.Engine.run_partitioned e_off ~keyword:kw
          = Essa.Engine.run_partitioned e_on ~keyword:kw)
        q
      && counters_except_cache r_off = counters_except_cache r_on)

(* ------------------------------------------------------------------ *)
(* The auction driver on every engine shape: a scripted clock walks each
   engine through all three deadline tiers, interleaved with cache hits
   and bid-update decimation, and the partitioned engines alternate
   batched and unbatched stretches.  The digests of every summary and the
   essa.* counters were computed with separate serial and partitioned
   drivers; the engine must reproduce them bit-for-bit. *)

type tier_mode = Full | Cheap | Late

(* [Late]: every read is past the deadline, so the auction is served
   unfilled.  [Cheap]: the start check passes and the check after
   program evaluation trips.  [Full]: no check trips. *)
let scripted_clock () =
  let mode = ref Full and reads = ref 0 in
  let clock () =
    incr reads;
    match !mode with
    | Late -> 100L
    | Cheap -> if !reads = 1 then 0L else 100L
    | Full -> 0L
  in
  let set m =
    mode := m;
    reads := 0
  in
  (clock, set)

let mode_of i = if i mod 11 = 4 then Late else if i mod 6 = 5 then Cheap else Full

let mixed_dense ~partitioned ~clock ~metrics =
  let w =
    Essa_sim.Workload.section5 ~seed:5 ~n:40 ~k:4 ~num_keywords:3
      ~budgeted_fraction:0.3 ()
  in
  Essa.Engine.create ~metrics ~clock ~partitioned ~cache:true ~update_every:3
    ~reserve:0 ~pricing:`Gsp ~method_:`Rhtalu ~ctr:(Essa_sim.Workload.ctr w)
    ~states:(Essa_sim.Workload.fresh_states w) ~user_seed:17 ()

let mixed_flat ~clock ~metrics =
  let u =
    Essa_sim.Workload.universe ~keywords:4 ~n:40 ~zipf_s:1.0
      ~budgeted_fraction:0.3 ~seed:5 ()
  in
  Essa.Engine.create_flat ~metrics ~clock ~cache:true ~update_every:3
    ~reserve:0 ~pricing:`Gsp ~ctr:(Essa_sim.Workload.universe_ctr u)
    ~store:(Essa_sim.Workload.universe_store ~churn:0.1 u ())
    ~user_seed:17 ()

(* Runs [queries] and returns the summaries in execution order.
   Partitioned engines run 30-query stretches alternately in arrival
   order and in windows of 6 regrouped by keyword, which keeps
   per-keyword FIFO but moves the cross-keyword interleaving. *)
let run_mixed engine ~set_mode ~queries =
  let executed = ref 0 in
  let out = ref [] in
  let run kw =
    set_mode (mode_of !executed);
    incr executed;
    let s =
      if Essa.Engine.partitioned engine then
        Essa.Engine.run_partitioned ~deadline_ns:50L engine ~keyword:kw
      else Essa.Engine.run_auction ~deadline_ns:50L engine ~keyword:kw
    in
    out := s :: !out
  in
  let i = ref 0 in
  while !i < Array.length queries do
    if !i / 30 mod 2 = 0 || not (Essa.Engine.partitioned engine) then begin
      run queries.(!i);
      incr i
    end
    else begin
      let window = Array.sub queries !i (min 6 (Array.length queries - !i)) in
      List.iter
        (fun kw -> Array.iter (fun k -> if k = kw then run kw) window)
        (List.sort_uniq compare (Array.to_list window));
      i := !i + Array.length window
    end
  done;
  Array.of_list (List.rev !out)

let counter_line reg =
  String.concat " "
    (List.filter_map
       (fun (e : Essa_obs.Registry.entry) ->
         match e.metric with
         | Essa_obs.Registry.Counter c ->
             Some (Printf.sprintf "%s=%d" e.name (Essa_obs.Counter.value c))
         | _ -> None)
       (Essa_obs.Registry.entries reg))

let check_mixed ~digest ~counters ~make ~queries =
  let clock, set_mode = scripted_clock () in
  let metrics = Essa_obs.Registry.create () in
  let engine = make ~clock ~metrics in
  let summaries = run_mixed engine ~set_mode ~queries in
  Alcotest.(check string) "summary digest" digest
    (Digest.to_hex (Digest.string (Marshal.to_string summaries [])));
  Alcotest.(check string) "counters" counters (counter_line metrics);
  if Essa.Engine.partitioned engine then begin
    let fresh =
      make ~clock:(fun () -> 0L) ~metrics:(Essa_obs.Registry.create ())
    in
    Array.iteri
      (fun i (s : Essa.Engine.summary) ->
        let r =
          Essa.Engine.replay_auction ?snapshot:s.spend_snapshot
            ~degraded:s.degraded fresh ~keyword:s.keyword
        in
        if r <> s then Alcotest.failf "replay diverges at auction %d" i)
      summaries
  end

let mixed_queries ~keywords =
  Array.init 240 (fun i -> (i * 7 + i / 5) mod keywords)

let test_mixed_tiers_serial () =
  check_mixed ~digest:"27e131f3a2abc3fa67d44adfbf1b0b43"
    ~counters:
      "essa.auctions=240 essa.revenue_cents=17261 essa.clicks=502 \
       essa.slots_filled=872 essa.ta.sorted_accesses=14198 \
       essa.ta.random_accesses=27909 essa.ta.seen_objects=12274 \
       essa.reduction.candidates=1599 \
       essa.auction.degraded_cheap=37 \
       essa.auction.degraded_unfilled=22 essa.engine.cache_hits=98 \
       essa.engine.cache_misses=83 \
       essa.engine.cache_invalidations=80"
    ~make:(mixed_dense ~partitioned:false)
    ~queries:(mixed_queries ~keywords:3)

let test_mixed_tiers_dense () =
  check_mixed ~digest:"9b399b017a4d10889e9ea9207e4d241a"
    ~counters:
      "essa.auctions=240 essa.revenue_cents=15717 essa.clicks=474 \
       essa.slots_filled=872 essa.ta.sorted_accesses=14976 \
       essa.ta.random_accesses=29328 essa.ta.seen_objects=12866 \
       essa.reduction.candidates=1689 \
       essa.auction.degraded_cheap=37 \
       essa.auction.degraded_unfilled=22 essa.engine.cache_hits=108 \
       essa.engine.cache_misses=73 \
       essa.engine.cache_invalidations=70"
    ~make:(mixed_dense ~partitioned:true)
    ~queries:(mixed_queries ~keywords:3)

let test_mixed_tiers_flat () =
  check_mixed ~digest:"80e6a818d52ef24f1eaa132f5c358fa2"
    ~counters:
      "essa.auctions=240 essa.revenue_cents=16315 essa.clicks=1653 \
       essa.slots_filled=3267 essa.ta.sorted_accesses=0 \
       essa.ta.random_accesses=0 essa.ta.seen_objects=0 \
       essa.reduction.candidates=3026 \
       essa.auction.degraded_cheap=37 \
       essa.auction.degraded_unfilled=22 essa.engine.cache_hits=110 \
       essa.engine.cache_misses=71 \
       essa.engine.cache_invalidations=67"
    ~make:mixed_flat
    ~queries:(mixed_queries ~keywords:4)

let () =
  Alcotest.run "essa_core"
    [
      ( "winner_determination",
        [
          prop_all_methods_agree;
          Alcotest.test_case "baseline changes winner" `Quick test_wd_baseline_changes_winner;
          Alcotest.test_case "adjusted weights" `Quick test_wd_adjusted;
        ] );
      ( "pricing",
        [
          prop_runner_up_scan_equals_lists;
          prop_gsp_never_exceeds_bid_equivalent;
          Alcotest.test_case "GSP second price" `Quick test_gsp_second_price_flavour;
          Alcotest.test_case "GSP no competition" `Quick test_gsp_no_competition_is_free;
          prop_vcg_properties;
          prop_vcg_reduced_view_exact;
          Alcotest.test_case "VCG classic" `Quick test_vcg_classic_example;
          Alcotest.test_case "pay-as-bid" `Quick test_pay_as_bid;
        ] );
      ( "auction",
        [
          Alcotest.test_case "basic run" `Quick test_auction_run_basic;
          Alcotest.test_case "deterministic" `Quick test_auction_deterministic_given_seed;
          Alcotest.test_case "class bids rejected" `Quick test_auction_rejects_class_bids;
          Alcotest.test_case "VCG pricing" `Quick test_auction_vcg_pricing_runs;
          Alcotest.test_case "unassigned baselines" `Quick test_auction_unassigned_baselines;
        ] );
      ( "heavyweight",
        [
          prop_heavyweight_matches_brute;
          prop_heavyweight_parallel_agrees;
          Alcotest.test_case "classes respected" `Quick test_heavyweight_respects_classes;
          Alcotest.test_case "pooled enumeration" `Quick test_heavyweight_pool_agrees;
          Alcotest.test_case "pattern bids steer" `Quick test_heavyweight_pattern_bids_steer;
        ] );
      ( "fas_reduction",
        [
          prop_fas_equivalence;
          prop_fas_greedy_bounded;
          prop_fas_local_search_dominates_greedy;
          Alcotest.test_case "revenue semantics" `Quick test_fas_revenue_semantics;
          Alcotest.test_case "2-cycle" `Quick test_fas_2cycle_cannot_collect_both;
        ] );
      ( "engine",
        [
          Alcotest.test_case "RH = RHTALU (800 auctions)" `Slow test_engine_rh_equals_rhtalu;
          Alcotest.test_case "methods agree on value" `Quick
            test_engine_all_methods_same_expected_value_one_auction;
          Alcotest.test_case "accounting" `Quick test_engine_accounting;
          Alcotest.test_case "pricing rules: RH = RHTALU" `Slow
            test_engine_pricing_rules_equivalence;
          Alcotest.test_case "VCG price <= bid" `Quick test_engine_vcg_prices_bounded_by_bid;
          Alcotest.test_case "pay-as-bid prices" `Quick test_engine_pay_as_bid_prices;
          Alcotest.test_case "phase breakdown" `Quick test_engine_phase_breakdown;
          Alcotest.test_case "brand premiums: RH = RHTALU" `Quick
            test_engine_brand_premiums_equivalence;
          Alcotest.test_case "premium wins top slot" `Quick
            test_engine_premium_changes_top_slot;
          Alcotest.test_case "premium accessor" `Quick test_roi_state_premium_accessor;
          Alcotest.test_case "deterministic stream" `Quick test_engine_deterministic_stream;
          Alcotest.test_case "mismatched states rejected" `Quick
            test_engine_mismatched_states_rejected;
          Alcotest.test_case "shared metrics registry" `Quick
            test_engine_shared_metrics_registry;
          Alcotest.test_case "reserve: equivalence + floor" `Quick
            test_engine_reserve_equivalence_and_floor;
          Alcotest.test_case "reserve raises prices" `Quick test_engine_reserve_raises_prices;
          Alcotest.test_case "budgets: equivalence + retirement" `Quick
            test_engine_budgets_equivalence;
          Alcotest.test_case "every auction optimal (oracle)" `Slow
            test_engine_every_auction_optimal;
          Alcotest.test_case "golden revenue" `Quick test_engine_golden_revenue;
        ] );
      ( "cache",
        [ prop_cache_bit_identity_serial; prop_cache_bit_identity_flat ] );
      ( "driver",
        [
          Alcotest.test_case "mixed tiers pinned (serial)" `Quick
            test_mixed_tiers_serial;
          Alcotest.test_case "mixed tiers pinned (dense partitioned)" `Quick
            test_mixed_tiers_dense;
          Alcotest.test_case "mixed tiers pinned (flat)" `Quick
            test_mixed_tiers_flat;
        ] );
    ]
