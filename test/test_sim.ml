(* Tests for the simulation layer (essa_sim): the Section V workload
   generator and the experiment harness plumbing. *)

let qtest ?(count = 50) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* ------------------------------------------------------------------ *)
(* Workload *)

let test_workload_shape () =
  let wl = Essa_sim.Workload.section5 ~seed:1 ~n:37 () in
  Alcotest.(check int) "n" 37 (Essa_sim.Workload.n wl);
  Alcotest.(check int) "k default" 15 (Essa_sim.Workload.k wl);
  Alcotest.(check int) "keywords default" 10 (Essa_sim.Workload.num_keywords wl);
  let ctr = Essa_sim.Workload.ctr wl in
  Alcotest.(check int) "ctr rows" 37 (Array.length ctr);
  Alcotest.(check int) "ctr cols" 15 (Array.length ctr.(0))

let test_workload_slot_intervals () =
  let wl = Essa_sim.Workload.section5 ~seed:1 ~n:100 () in
  let lo1, hi1 = Essa_sim.Workload.slot_interval wl ~slot:1 in
  let lo15, hi15 = Essa_sim.Workload.slot_interval wl ~slot:15 in
  (* Paper: [0.1, 0.9] partitioned into 15 disjoint intervals, higher
     intervals for higher slots. *)
  Alcotest.(check (float 1e-9)) "top ends at 0.9" 0.9 hi1;
  Alcotest.(check (float 1e-9)) "bottom starts at 0.1" 0.1 lo15;
  Alcotest.(check bool) "disjoint downward" true (lo1 > hi15);
  Alcotest.(check (float 1e-9)) "equal widths" (hi1 -. lo1) (hi15 -. lo15)

let prop_workload_ctr_within_intervals =
  qtest "every ctr lies in its slot's interval"
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let wl = Essa_sim.Workload.section5 ~seed ~n:30 () in
      let ctr = Essa_sim.Workload.ctr wl in
      Array.for_all
        (fun row ->
          Array.for_all (fun x -> x)
            (Array.mapi
               (fun j p ->
                 let lo, hi = Essa_sim.Workload.slot_interval wl ~slot:(j + 1) in
                 p >= lo && p <= hi)
               row))
        ctr)

let prop_workload_values_and_targets =
  qtest "values in [0,50] with a nonzero; targets in [1, max value]"
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let wl = Essa_sim.Workload.section5 ~seed ~n:25 () in
      let states = Essa_sim.Workload.fresh_states wl in
      Array.for_all
        (fun st ->
          let nk = Essa_strategy.Roi_state.num_keywords st in
          let values = List.init nk (fun kw -> Essa_strategy.Roi_state.value st ~keyword:kw) in
          let max_v = List.fold_left max 0 values in
          List.for_all (fun v -> v >= 0 && v <= 50) values
          && max_v >= 1
          && Essa_strategy.Roi_state.target_rate st >= 1.0
          && Essa_strategy.Roi_state.target_rate st <= float_of_int max_v)
        states)

let test_workload_fresh_states_independent () =
  let wl = Essa_sim.Workload.section5 ~seed:3 ~n:5 () in
  let a = Essa_sim.Workload.fresh_states wl in
  let b = Essa_sim.Workload.fresh_states wl in
  (* Same initial content... *)
  Alcotest.(check bool) "equal initially" true
    (Array.for_all2 Essa_strategy.Roi_state.equal a b);
  (* ...but mutating one copy must not affect the other. *)
  Essa_strategy.Roi_state.record_win a.(0) ~keyword:0 ~price:5 ~clicked:true;
  Alcotest.(check bool) "independent" false (Essa_strategy.Roi_state.equal a.(0) b.(0))

let test_workload_determinism () =
  let w1 = Essa_sim.Workload.section5 ~seed:7 ~n:10 () in
  let w2 = Essa_sim.Workload.section5 ~seed:7 ~n:10 () in
  Alcotest.(check bool) "same ctr" true (Essa_sim.Workload.ctr w1 = Essa_sim.Workload.ctr w2)

(* [budgeted_fraction] gives that share of advertisers a daily budget of
   50-500 cents; the rest stay unbudgeted. *)
let test_workload_budgeted_share () =
  let budgets fraction =
    Array.map Essa_strategy.Roi_state.budget
      (Essa_sim.Workload.fresh_states
         (Essa_sim.Workload.section5 ~seed:4 ~n:400 ~budgeted_fraction:fraction ()))
  in
  Alcotest.(check bool) "fraction 0: no budgets" true
    (Array.for_all Option.is_none (budgets 0.0));
  Alcotest.(check bool) "fraction 1: every budget in [50, 500)" true
    (Array.for_all
       (function Some b -> b >= 50 && b < 500 | None -> false)
       (budgets 1.0));
  let half = Array.fold_left (fun c b -> if b = None then c else c + 1) 0 (budgets 0.5) in
  Alcotest.(check bool) "fraction 0.5: about half" true (half >= 160 && half <= 240)

(* [brand_fraction] puts the Section II-C slot-1 premium only on an
   advertiser's highest-value keyword, at most half the value range. *)
let test_workload_brand_premiums () =
  let states fraction =
    Essa_sim.Workload.fresh_states
      (Essa_sim.Workload.section5 ~seed:5 ~n:60 ~num_keywords:6
         ~brand_fraction:fraction ())
  in
  let premiums st =
    List.init 6 (fun keyword -> Essa_strategy.Roi_state.premium st ~keyword)
  in
  Alcotest.(check bool) "fraction 0: no premiums" true
    (Array.for_all (fun st -> List.for_all (( = ) 0) (premiums st)) (states 0.0));
  Array.iter
    (fun st ->
      let values =
        List.init 6 (fun keyword -> Essa_strategy.Roi_state.value st ~keyword)
      in
      let best = List.fold_left max 0 values in
      List.iter2
        (fun v p ->
          if v = best then
            Alcotest.(check bool) "premium on a favourite keyword" true
              (p >= 1 && p <= 25)
          else Alcotest.(check int) "no premium elsewhere" 0 p)
        values (premiums st))
    (states 1.0)

let test_query_stream_uniform_range () =
  let wl = Essa_sim.Workload.section5 ~seed:1 ~n:5 () in
  let seen = Array.make 10 false in
  let q = ref (Essa_sim.Workload.query_stream wl ~seed:2) in
  for _ = 1 to 500 do
    match !q () with
    | Seq.Cons (kw, rest) ->
        q := rest;
        if kw < 0 || kw >= 10 then Alcotest.fail "keyword out of range";
        seen.(kw) <- true
    | Seq.Nil -> Alcotest.fail "stream ended"
  done;
  Alcotest.(check bool) "all keywords appear" true (Array.for_all (fun b -> b) seen)

(* ------------------------------------------------------------------ *)
(* Experiment harness *)

let tiny_series () =
  Essa_sim.Experiment.run_series ~warmup:2 ~method_:`Rh ~seed:1 ~ns:[ 20; 40 ]
    ~auctions:5 ()

let test_run_series_points () =
  let s = tiny_series () in
  Alcotest.(check string) "label" "RH" s.label;
  Alcotest.(check (list int)) "ns" [ 20; 40 ]
    (List.map (fun (p : Essa_sim.Experiment.point) -> p.n) s.points);
  List.iter
    (fun (p : Essa_sim.Experiment.point) ->
      Alcotest.(check bool) "positive time" true (p.ms_per_auction > 0.0);
      Alcotest.(check int) "measured all" 5 p.auctions_measured)
    s.points

let test_run_series_metrics () =
  (* A shared registry accumulates every auction of the sweep — warmup
     included — with per-phase latency histograms alongside. *)
  let registry = Essa_obs.Registry.create () in
  let s =
    Essa_sim.Experiment.run_series ~metrics:registry ~warmup:2 ~method_:`Rh
      ~seed:1 ~ns:[ 20; 40 ] ~auctions:5 ()
  in
  let measured =
    List.fold_left
      (fun acc (p : Essa_sim.Experiment.point) -> acc + p.auctions_measured)
      0 s.points
  in
  (match Essa_obs.Registry.find registry "essa.auctions" with
  | Some (Essa_obs.Registry.Counter c) ->
      Alcotest.(check int) "auctions = measured + warmup" (measured + 4)
        (Essa_obs.Counter.value c)
  | _ -> Alcotest.fail "essa.auctions missing");
  match Essa_obs.Registry.find registry "essa.auction.phase.winner_determination_ns" with
  | Some (Essa_obs.Registry.Histogram h) ->
      Alcotest.(check int) "WD histogram covers every auction" (measured + 4)
        (Essa_obs.Histogram.count h);
      Alcotest.(check bool) "exportable" true
        (String.length (Essa_obs.Export.to_text registry) > 0)
  | _ -> Alcotest.fail "phase histogram missing"

(* The deterministic fields of a point: everything but the wall-clock
   timing. *)
let det_points (s : Essa_sim.Experiment.series) =
  List.map
    (fun (p : Essa_sim.Experiment.point) -> (p.n, p.auctions_measured, p.revenue))
    s.points

let test_run_series_deterministic () =
  (* Same seed, same sweep: the same auctions, so the same counts and
     revenue, and the same metric shape (names in registration order,
     counter values, histogram sample counts).  Budgets are generous so
     neither run truncates. *)
  let run () =
    let registry = Essa_obs.Registry.create () in
    let s =
      Essa_sim.Experiment.run_series ~metrics:registry ~warmup:2
        ~method_:`Rhtalu ~seed:3 ~ns:[ 15; 30; 45 ] ~auctions:8 ()
    in
    let shape =
      List.map
        (fun (e : Essa_obs.Registry.entry) ->
          let v =
            match e.metric with
            | Essa_obs.Registry.Counter c -> Essa_obs.Counter.value c
            | Essa_obs.Registry.Gauge _ -> 0
            | Essa_obs.Registry.Histogram h -> Essa_obs.Histogram.count h
          in
          (e.name, v))
        (Essa_obs.Registry.entries registry)
    in
    (s, shape)
  in
  let s1, shape1 = run () and s2, shape2 = run () in
  Alcotest.(check (list (triple int int int))) "points" (det_points s1) (det_points s2);
  (* Revenue is realised clicks, so a small point may collect nothing;
     the sweep as a whole must, or the comparison says little. *)
  Alcotest.(check bool) "revenue collected" true
    (List.exists (fun (_, _, r) -> r > 0) (det_points s1));
  Alcotest.(check (list (pair string int))) "metrics shape" shape1 shape2

let test_fig13_same_auctions () =
  (* Fig. 13 compares two top-k algorithms on the same auctions: both
     series cover every n with every auction measured, and the exact
     optimum each finds collects the same revenue. *)
  let series = Essa_sim.Experiment.fig13 ~seed:2 ~ns:[ 20; 40 ] ~auctions:4 () in
  Alcotest.(check (list string)) "labels" [ "RH"; "RHTALU" ]
    (List.map (fun (s : Essa_sim.Experiment.series) -> s.label) series);
  match series with
  | [ rh; rhtalu ] ->
      Alcotest.(check (list (triple int int int))) "RH = RHTALU" (det_points rh)
        (det_points rhtalu);
      Alcotest.(check bool) "revenue collected" true
        (List.exists (fun (_, _, r) -> r > 0) (det_points rh));
      Alcotest.(check (list int)) "ns" [ 20; 40 ]
        (List.map (fun (p : Essa_sim.Experiment.point) -> p.n) rh.points)
  | _ -> Alcotest.fail "fig13 runs two series"

let test_fig12_methods () =
  let series = Essa_sim.Experiment.fig12 ~seed:2 ~ns:[ 30 ] ~auctions:4 () in
  Alcotest.(check (list string)) "labels in order"
    [ "LPdense"; "LP"; "H"; "RH"; "RHTALU" ]
    (List.map (fun (s : Essa_sim.Experiment.series) -> s.label) series);
  (* Every method finds an optimum of the same auctions. *)
  match List.map det_points series with
  | first :: rest ->
      Alcotest.(check bool) "revenue collected" true
        (List.exists (fun (_, _, r) -> r > 0) first);
      List.iter (Alcotest.(check (list (triple int int int))) "same points" first) rest
  | [] -> Alcotest.fail "no series"

let test_csv_round_trips () =
  (* The method, n, auctions and revenue columns — the ones two commits'
     sweeps are compared on — read back as the series' own fields. *)
  let s = tiny_series () in
  let rows =
    String.split_on_char '\n' (String.trim (Essa_sim.Experiment.to_csv [ s ]))
    |> List.tl
    |> List.map (fun line ->
           match String.split_on_char ',' line with
           | [ m; n; auctions; ms; revenue ] ->
               ( (m, int_of_string n, int_of_string auctions),
                 float_of_string ms,
                 int_of_string revenue )
           | _ -> Alcotest.failf "malformed row %S" line)
  in
  Alcotest.(check (list (triple string int int))) "columns"
    (List.map (fun (p : Essa_sim.Experiment.point) -> ("RH", p.n, p.auctions_measured)) s.points)
    (List.map (fun (key, _, _) -> key) rows);
  Alcotest.(check (list int)) "revenue column"
    (List.map (fun (p : Essa_sim.Experiment.point) -> p.revenue) s.points)
    (List.map (fun (_, _, revenue) -> revenue) rows);
  List.iter2
    (fun (p : Essa_sim.Experiment.point) (_, ms, _) ->
      Alcotest.(check bool) "ms to 6 places" true
        (abs_float (ms -. p.ms_per_auction) <= 5e-7))
    s.points rows

let test_give_up_truncates () =
  (* A brutal give-up threshold keeps only the first point. *)
  let s =
    Essa_sim.Experiment.run_series ~warmup:1 ~give_up_ms:0.0 ~method_:`Rh ~seed:1
      ~ns:[ 10; 20; 30 ] ~auctions:2 ()
  in
  Alcotest.(check int) "one point" 1 (List.length s.points)

let test_csv_format () =
  let s = tiny_series () in
  let csv = Essa_sim.Experiment.to_csv [ s ] in
  let lines = String.split_on_char '\n' (String.trim csv) in
  Alcotest.(check string) "header" "method,n,auctions,ms_per_auction,revenue"
    (List.hd lines);
  Alcotest.(check int) "rows" 3 (List.length lines);
  List.iter
    (fun line ->
      if line <> List.hd lines then
        Alcotest.(check bool) "starts with RH," true
          (String.length line > 3 && String.sub line 0 3 = "RH,"))
    (List.tl lines)

let test_table_format () =
  let s = tiny_series () in
  let table = Essa_sim.Experiment.to_table [ s ] in
  Alcotest.(check bool) "has header" true
    (String.length table > 0
    &&
    let first_line = List.hd (String.split_on_char '\n' table) in
    String.length first_line > 0)

let test_table_renders_missing_points () =
  let full = tiny_series () in
  let truncated = { full with Essa_sim.Experiment.points = [ List.hd full.points ] } in
  let table = Essa_sim.Experiment.to_table [ full; truncated ] in
  Alcotest.(check bool) "dash for missing n" true (String.contains table '-')

let test_ascii_plot_smoke () =
  let s = tiny_series () in
  let plot = Essa_sim.Experiment.to_ascii_plot [ s ] in
  Alcotest.(check bool) "marks present" true (String.contains plot 'R');
  Alcotest.(check bool) "legend" true (String.contains plot '=');
  Alcotest.(check string) "empty data" "(no data)\n"
    (Essa_sim.Experiment.to_ascii_plot [ { s with points = [] } ])

let test_method_labels () =
  Alcotest.(check string) "LP" "LP" (Essa_sim.Experiment.method_label `Lp);
  Alcotest.(check string) "LPdense" "LPdense" (Essa_sim.Experiment.method_label `Lp_dense);
  Alcotest.(check string) "H" "H" (Essa_sim.Experiment.method_label `H);
  Alcotest.(check string) "RH" "RH" (Essa_sim.Experiment.method_label `Rh);
  Alcotest.(check string) "RHTALU" "RHTALU" (Essa_sim.Experiment.method_label `Rhtalu)

(* ------------------------------------------------------------------ *)
(* Matcher (provider-side keyword matching) *)

let make_matcher () =
  let m = Essa_sim.Matcher.create () in
  Essa_sim.Matcher.add_advertiser m ~adv:0 ~keywords:[ "boot"; "running shoe" ];
  Essa_sim.Matcher.add_advertiser m ~adv:1 ~keywords:[ "shoe" ];
  Essa_sim.Matcher.add_advertiser m ~adv:2 ~keywords:[ "piano" ];
  m

let test_matcher_tokens () =
  Alcotest.(check (list string)) "tokenizer"
    [ "red"; "running"; "shoes"; "42" ]
    (Essa_sim.Matcher.tokens "Red, RUNNING shoes!  42")

let test_matcher_candidates () =
  let m = make_matcher () in
  Alcotest.(check (list int)) "shoe query" [ 0; 1 ]
    (Essa_sim.Matcher.candidates m ~query:"cheap shoe");
  Alcotest.(check (list int)) "piano query" [ 2 ]
    (Essa_sim.Matcher.candidates m ~query:"grand PIANO");
  Alcotest.(check (list int)) "no match" []
    (Essa_sim.Matcher.candidates m ~query:"automobile")

let test_matcher_relevance () =
  let m = make_matcher () in
  Alcotest.(check (float 1e-9)) "full phrase" 1.0
    (Essa_sim.Matcher.relevance m ~adv:0 ~keyword:"running shoe" ~query:"best running shoe deals");
  Alcotest.(check (float 1e-9)) "half phrase" 0.5
    (Essa_sim.Matcher.relevance m ~adv:0 ~keyword:"running shoe" ~query:"running socks");
  Alcotest.(check (float 1e-9)) "not owned" 0.0
    (Essa_sim.Matcher.relevance m ~adv:1 ~keyword:"boot" ~query:"boot");
  Alcotest.(check (float 1e-9)) "no overlap" 0.0
    (Essa_sim.Matcher.relevance m ~adv:2 ~keyword:"piano" ~query:"boot")

let test_matcher_best_keyword () =
  let m = make_matcher () in
  (match Essa_sim.Matcher.best_keyword m ~adv:0 ~query:"buy running shoe" with
  | Some (kw, r) ->
      Alcotest.(check string) "best" "running shoe" kw;
      Alcotest.(check (float 1e-9)) "score" 1.0 r
  | None -> Alcotest.fail "expected a match");
  Alcotest.(check bool) "no match" true
    (Essa_sim.Matcher.best_keyword m ~adv:2 ~query:"shoe" = None)

let test_matcher_replace_advertiser () =
  let m = make_matcher () in
  Essa_sim.Matcher.add_advertiser m ~adv:1 ~keywords:[ "sandal" ];
  Alcotest.(check (list int)) "old keyword dropped" [ 0 ]
    (Essa_sim.Matcher.candidates m ~query:"shoe");
  Alcotest.(check (list int)) "new keyword live" [ 1 ]
    (Essa_sim.Matcher.candidates m ~query:"sandal");
  Alcotest.(check int) "count unchanged" 3 (Essa_sim.Matcher.num_advertisers m)

let test_matcher_pruning_preserves_winners () =
  (* Winner determination over the pruned candidate set equals WD over
     everyone, because non-candidates bid 0 on this query. *)
  let rng = Essa_util.Rng.create 9 in
  let n = 40 and k = 3 in
  let m = Essa_sim.Matcher.create () in
  let vocab = [| "boot"; "shoe"; "piano"; "guitar"; "sofa" |] in
  let owned = Array.init n (fun _ -> vocab.(Essa_util.Rng.int rng 5)) in
  Array.iteri (fun adv kw -> Essa_sim.Matcher.add_advertiser m ~adv ~keywords:[ kw ]) owned;
  let query = "boot" in
  let candidates = Essa_sim.Matcher.candidates m ~query in
  let bid adv = if List.mem adv candidates then 1 + (adv mod 17) else 0 in
  let ctr = Array.init n (fun i -> Array.init k (fun j ->
      0.1 +. (0.8 /. float_of_int (1 + i + j)))) in
  let w_full = Array.init n (fun i -> Array.map (fun p -> p *. float_of_int (bid i)) ctr.(i)) in
  let full_value = Essa_matching.Hungarian.optimal_weight ~w:w_full in
  let cands = Array.of_list candidates in
  let w_pruned = Array.map (fun i -> w_full.(i)) cands in
  let pruned_value = Essa_matching.Hungarian.optimal_weight ~w:w_pruned in
  Alcotest.(check (float 1e-9)) "pruning is lossless" full_value pruned_value

(* ------------------------------------------------------------------ *)
(* Cli_spec *)

let test_cli_parse_bids () =
  let b = Essa_sim.Cli_spec.parse_bids "click:10,purchase & slot1:5" in
  Alcotest.(check int) "rows" 2 (Essa_bidlang.Bids.size b);
  Alcotest.(check int) "sum" 15 (Essa_bidlang.Bids.max_payment b)

let test_cli_parse_bids_errors () =
  let bad f = match f () with exception _ -> true | _ -> false in
  Alcotest.(check bool) "missing colon" true
    (bad (fun () -> Essa_sim.Cli_spec.parse_bids "click"));
  Alcotest.(check bool) "bad amount" true
    (bad (fun () -> Essa_sim.Cli_spec.parse_bids "click:lots"));
  Alcotest.(check bool) "bad formula" true
    (bad (fun () -> Essa_sim.Cli_spec.parse_bids "clack:3"));
  Alcotest.(check bool) "negative" true
    (bad (fun () -> Essa_sim.Cli_spec.parse_bids "click:-2"))

let test_cli_parse_probs () =
  Alcotest.(check (array (float 1e-9))) "three" [| 0.5; 0.25; 0.1 |]
    (Essa_sim.Cli_spec.parse_probs ~k:3 "0.5, 0.25 ,0.1");
  let bad f = match f () with exception Invalid_argument _ -> true | _ -> false in
  Alcotest.(check bool) "count" true
    (bad (fun () -> Essa_sim.Cli_spec.parse_probs ~k:2 "0.5"));
  Alcotest.(check bool) "not a float" true
    (bad (fun () -> Essa_sim.Cli_spec.parse_probs ~k:1 "zed"))

(* ------------------------------------------------------------------ *)
(* Zipf universe *)

let test_universe_shape_and_determinism () =
  let mk () =
    Essa_sim.Workload.universe ~slots:5 ~keywords:50 ~n:200 ~zipf_s:1.1
      ~seed:7 ()
  in
  let u = mk () in
  Alcotest.(check int) "n" 200 (Essa_sim.Workload.universe_n u);
  Alcotest.(check int) "keywords" 50 (Essa_sim.Workload.universe_keywords u);
  Alcotest.(check int) "slots" 5 (Essa_sim.Workload.universe_slots u);
  let ctr = Essa_sim.Workload.universe_ctr u in
  Alcotest.(check int) "ctr rows" 200 (Array.length ctr);
  Alcotest.(check int) "ctr cols" 5 (Array.length ctr.(0));
  (* Same seed, same universe: the stores enroll identically. *)
  let s1 = Essa_sim.Workload.universe_store u ()
  and s2 = Essa_sim.Workload.universe_store (mk ()) () in
  for kw = 0 to 49 do
    let a = Essa_strategy.State_store.flat_stats s1 ~keyword:kw
    and b = Essa_strategy.State_store.flat_stats s2 ~keyword:kw in
    if a <> b then Alcotest.failf "keyword %d partitions differ" kw
  done;
  (* Sparse: total participation bounded by n * max_keywords_per_adv,
     and every advertiser is enrolled somewhere. *)
  let total = ref 0 in
  for kw = 0 to 49 do
    total :=
      !total
      + (Essa_strategy.State_store.flat_stats s1 ~keyword:kw)
          .Essa_strategy.State_store.fs_live
  done;
  Alcotest.(check bool) "participation sparse" true
    (!total >= 200 && !total <= 200 * 3)

let test_universe_zipf_skew () =
  let u =
    Essa_sim.Workload.universe ~keywords:100 ~n:50 ~zipf_s:1.1 ~seed:3 ()
  in
  let qs = Essa_sim.Workload.universe_queries u ~seed:4 ~count:20_000 in
  Alcotest.(check int) "count" 20_000 (Array.length qs);
  let counts = Array.make 100 0 in
  Array.iter
    (fun kw ->
      if kw < 0 || kw >= 100 then Alcotest.failf "keyword %d out of range" kw;
      counts.(kw) <- counts.(kw) + 1)
    qs;
  (* Zipf(1.1) over 100 keywords: rank 1 carries ~19% of the mass, rank
     50 ~0.25% — the head must dominate the median by a wide margin. *)
  Alcotest.(check bool) "head dominates" true (counts.(0) > 10 * counts.(50));
  Alcotest.(check bool) "head is plural but not majority" true
    (counts.(0) < 10_000);
  (* Determinism in the stream seed. *)
  let qs' = Essa_sim.Workload.universe_queries u ~seed:4 ~count:20_000 in
  Alcotest.(check bool) "same seed, same stream" true (qs = qs');
  let qs'' = Essa_sim.Workload.universe_queries u ~seed:5 ~count:20_000 in
  Alcotest.(check bool) "different seed, different stream" true (qs <> qs'')

let test_universe_churn_deterministic_replay () =
  (* Two engines over two independently rebuilt stores — same universe,
     same churn rate and seed — must serve a shared query sequence
     bit-identically: scheduled churn re-fires at the same keyword-local
     times, which is the property the serve-side replay rests on. *)
  let u =
    Essa_sim.Workload.universe ~keywords:20 ~n:100 ~zipf_s:1.0 ~seed:11 ()
  in
  let run () =
    let store = Essa_sim.Workload.universe_store ~churn:0.2 u () in
    let engine = Essa_sim.Workload.make_flat_engine u ~store in
    let qs = Essa_sim.Workload.universe_queries u ~seed:12 ~count:400 in
    let summaries =
      Array.map
        (fun kw ->
          let (s : Essa.Engine.summary) =
            Essa.Engine.run_partitioned engine ~keyword:kw
          in
          ( s.auction_time,
            s.keyword,
            s.assignment,
            s.prices,
            s.clicks,
            s.revenue,
            s.spend_snapshot ))
        qs
    in
    (summaries, Essa.Engine.total_revenue engine)
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "rebuilt run is bit-identical" true (a = b);
  (* Churn actually happened: some partition's len differs from a
     churn-free rebuild (probability of no churn in 400 auctions at 0.2
     is astronomically small). *)
  let churned = Essa_sim.Workload.universe_store ~churn:0.2 u () in
  let engine = Essa_sim.Workload.make_flat_engine u ~store:churned in
  let qs = Essa_sim.Workload.universe_queries u ~seed:12 ~count:400 in
  Array.iter
    (fun kw -> ignore (Essa.Engine.run_partitioned engine ~keyword:kw))
    qs;
  let calm = Essa_sim.Workload.universe_store u () in
  let moved = ref false in
  for kw = 0 to 19 do
    if
      Essa_strategy.State_store.flat_stats churned ~keyword:kw
      <> Essa_strategy.State_store.flat_stats calm ~keyword:kw
    then moved := true
  done;
  Alcotest.(check bool) "churn moved membership" true !moved

let test_universe_validation () =
  let raises f =
    match f () with exception Invalid_argument _ -> true | _ -> false
  in
  Alcotest.(check bool) "bad zipf_s" true
    (raises (fun () ->
         Essa_sim.Workload.universe ~keywords:5 ~n:5 ~zipf_s:(-1.0) ~seed:1 ()));
  Alcotest.(check bool) "bad keywords" true
    (raises (fun () ->
         Essa_sim.Workload.universe ~keywords:0 ~n:5 ~zipf_s:1.0 ~seed:1 ()));
  let u = Essa_sim.Workload.universe ~keywords:5 ~n:5 ~zipf_s:1.0 ~seed:1 () in
  Alcotest.(check bool) "bad churn rate" true
    (raises (fun () ->
         ignore (Essa_sim.Workload.universe_store ~churn:1.5 u ())));
  Alcotest.(check bool) "negative count" true
    (raises (fun () ->
         ignore (Essa_sim.Workload.universe_queries u ~seed:1 ~count:(-1))))

let () =
  Alcotest.run "essa_sim"
    [
      ( "workload",
        [
          Alcotest.test_case "shape" `Quick test_workload_shape;
          Alcotest.test_case "slot intervals" `Quick test_workload_slot_intervals;
          prop_workload_ctr_within_intervals;
          prop_workload_values_and_targets;
          Alcotest.test_case "fresh states independent" `Quick
            test_workload_fresh_states_independent;
          Alcotest.test_case "determinism" `Quick test_workload_determinism;
          Alcotest.test_case "budgeted share" `Quick test_workload_budgeted_share;
          Alcotest.test_case "brand premiums" `Quick test_workload_brand_premiums;
          Alcotest.test_case "query stream" `Quick test_query_stream_uniform_range;
        ] );
      ( "universe",
        [
          Alcotest.test_case "shape & determinism" `Quick
            test_universe_shape_and_determinism;
          Alcotest.test_case "zipf skew" `Quick test_universe_zipf_skew;
          Alcotest.test_case "churn replay determinism" `Quick
            test_universe_churn_deterministic_replay;
          Alcotest.test_case "validation" `Quick test_universe_validation;
        ] );
      ( "matcher",
        [
          Alcotest.test_case "tokens" `Quick test_matcher_tokens;
          Alcotest.test_case "candidates" `Quick test_matcher_candidates;
          Alcotest.test_case "relevance" `Quick test_matcher_relevance;
          Alcotest.test_case "best keyword" `Quick test_matcher_best_keyword;
          Alcotest.test_case "replace advertiser" `Quick test_matcher_replace_advertiser;
          Alcotest.test_case "pruning lossless" `Quick test_matcher_pruning_preserves_winners;
        ] );
      ( "cli_spec",
        [
          Alcotest.test_case "parse bids" `Quick test_cli_parse_bids;
          Alcotest.test_case "parse bids errors" `Quick test_cli_parse_bids_errors;
          Alcotest.test_case "parse probs" `Quick test_cli_parse_probs;
        ] );
      ( "experiment",
        [
          Alcotest.test_case "run_series" `Quick test_run_series_points;
          Alcotest.test_case "run_series metrics" `Quick test_run_series_metrics;
          Alcotest.test_case "run_series deterministic" `Quick
            test_run_series_deterministic;
          Alcotest.test_case "fig13: same auctions" `Quick test_fig13_same_auctions;
          Alcotest.test_case "fig12 methods" `Quick test_fig12_methods;
          Alcotest.test_case "csv round trip" `Quick test_csv_round_trips;
          Alcotest.test_case "give-up truncation" `Quick test_give_up_truncates;
          Alcotest.test_case "csv" `Quick test_csv_format;
          Alcotest.test_case "table" `Quick test_table_format;
          Alcotest.test_case "missing points render" `Quick test_table_renders_missing_points;
          Alcotest.test_case "ascii plot" `Quick test_ascii_plot_smoke;
          Alcotest.test_case "labels" `Quick test_method_labels;
        ] );
    ]
