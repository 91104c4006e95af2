(* Tests for the first-class mechanism interface (Essa.Mechanism): the
   default construction, the flat and SoA kernels against their
   references, no blocking pair for the ascending stable-matching
   auction, and floor respect for the reserve mechanism.  The
   bit-identity cells — [`Reserve (`Fixed zeros)] = [`Classic] and the
   new mechanisms' cache twins, summaries AND counters, on every engine
   shape — are rows of the scenario table (test_scenarios.ml). *)

module Engine = Essa.Engine
module Workload = Essa_sim.Workload
module Stable_match = Essa.Stable_match

let qtest ?(count = 10) ?print name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ?print ~name gen prop)

(* Default construction (no [?mechanism]) is the classic mechanism. *)
let test_default_is_classic () =
  let wl = Workload.section5 ~seed:7 ~n:30 ~k:4 ~num_keywords:5 () in
  let q = Workload.queries wl ~seed:8 ~count:200 in
  let e_default = Workload.make_engine wl ~method_:`Rhtalu in
  let e_classic =
    Workload.make_engine ~mechanism:`Classic wl ~method_:`Rhtalu
  in
  Alcotest.(check string)
    "default mechanism name" "gsp"
    (Engine.mechanism_name e_default);
  Alcotest.(check bool) "summaries identical" true
    (Array.for_all
       (fun kw ->
         Engine.run_auction e_default ~keyword:kw
         = Engine.run_auction e_classic ~keyword:kw)
       q)

let test_mechanism_names () =
  let wl = Workload.section5 ~seed:3 ~n:10 ~k:3 ~num_keywords:4 () in
  let name ?pricing ?mechanism () =
    Engine.mechanism_name
      (Workload.make_engine ?pricing ?mechanism wl ~method_:`Rh)
  in
  Alcotest.(check string) "gsp" "gsp" (name ~mechanism:`Classic ());
  Alcotest.(check string) "vcg" "vcg" (name ~pricing:`Vcg ~mechanism:`Classic ());
  Alcotest.(check string) "stable" "stable" (name ~mechanism:`Stable ());
  Alcotest.(check string) "reserve" "reserve"
    (name ~mechanism:(`Reserve `Monopoly) ())

(* ------------------------------------------------------------------ *)
(* The RH kernel against its reference: the list-based top-(k+1) scan
   and list-walking GSP the score-once kernel replaced, kept here as the
   oracle.  Hand-built single-keyword stores put the live count on every
   side of the kernel's selection regimes (live <= k+1, k+1 < live <
   2(k+1), live >= 2(k+1)), with retirement holes, equal bids and scores
   (ties broken by id), a reserve above some bids (all-zero rows) and
   slot-0 premiums.  Each instance runs twice: on the flat partition's
   own view, and on a dense view of its live members (identity ids,
   every slot live) over the same bids. *)

module Mechanism = Essa.Mechanism
module Sstore = Essa_strategy.State_store

let reference_rh_wd (x : Mechanism.ctx) ~reserve (kv : Mechanism.keyword_view)
    =
  let members = kv.kv_ids and bids = kv.kv_bids and prems = kv.kv_prems in
  let len = kv.kv_len in
  let count = x.x_k + 1 in
  let tk_ids = Array.make count 0
  and tk_scores = Array.make count 0.0
  and tk_slots = Array.make count 0 in
  let tops = Array.make x.x_k [] in
  let stamped = Array.make len false in
  let cands = ref [] in
  for j = 0 to x.x_k - 1 do
    let tk_size = ref 0 in
    for slot = 0 to len - 1 do
      let gid = members.(slot) in
      if gid >= 0 then begin
        let bid_c = bids.(slot) in
        let sc =
          if bid_c < reserve then 0.0
          else
            let b = float_of_int bid_c in
            if j = 0 then x.x_ctr.(gid).(0) *. (b +. float_of_int prems.(slot))
            else x.x_ctr.(gid).(j) *. b
        in
        let full = !tk_size >= count in
        let accept =
          (not full)
          ||
          let ms = tk_scores.(count - 1) in
          sc > ms || (sc = ms && gid < tk_ids.(count - 1))
        in
        if accept then begin
          let p = ref (if full then count - 1 else !tk_size) in
          if not full then incr tk_size;
          while
            !p > 0
            && (let ps = tk_scores.(!p - 1) in
                sc > ps || (sc = ps && gid < tk_ids.(!p - 1)))
          do
            tk_scores.(!p) <- tk_scores.(!p - 1);
            tk_ids.(!p) <- tk_ids.(!p - 1);
            tk_slots.(!p) <- tk_slots.(!p - 1);
            decr p
          done;
          tk_scores.(!p) <- sc;
          tk_ids.(!p) <- gid;
          tk_slots.(!p) <- slot
        end
      end
    done;
    let rec build i acc =
      if i < 0 then acc else build (i - 1) ((tk_ids.(i), tk_scores.(i)) :: acc)
    in
    tops.(j) <- build (!tk_size - 1) [];
    for i = 0 to !tk_size - 1 do
      let slot = tk_slots.(i) in
      if not stamped.(slot) then begin
        stamped.(slot) <- true;
        cands := slot :: !cands
      end
    done
  done;
  let slots = Array.of_list !cands in
  Array.sort (fun a b -> Int.compare members.(a) members.(b)) slots;
  let advertisers = Array.map (fun slot -> members.(slot)) slots in
  let w =
    Array.map
      (fun slot ->
        let gid = members.(slot) and bid_c = bids.(slot) in
        if bid_c < reserve then Array.make x.x_k 0.0
        else
          let b = float_of_int bid_c in
          Array.init x.x_k (fun j ->
              if j = 0 then x.x_ctr.(gid).(0) *. (b +. float_of_int prems.(slot))
              else x.x_ctr.(gid).(j) *. b))
      slots
  in
  let reduced = Essa_matching.Hungarian.solve ~w in
  let assignment =
    Array.map (Option.map (fun local -> advertisers.(local))) reduced
  in
  (assignment, tops, Array.length slots)

let reference_gsp (x : Mechanism.ctx) ~reserve ~assignment ~top =
  let is_winner id =
    let rec go j0 =
      if j0 >= Array.length assignment then false
      else
        match assignment.(j0) with
        | Some w when w = id -> true
        | _ -> go (j0 + 1)
    in
    go 0
  in
  Array.mapi
    (fun j0 cell ->
      match cell with
      | None -> 0
      | Some winner ->
          let rec runner = function
            | [] -> 0
            | (i, weight) :: rest ->
                if is_winner i then runner rest
                else
                  let p = x.x_ctr.(winner).(j0) in
                  if p <= 0.0 || weight <= 0.0 then 0
                  else int_of_float (Float.ceil ((weight /. p) -. 1e-9))
          in
          max (runner top.(j0)) reserve)
    assignment

let flat_ctx ~ctr ~k store : Mechanism.ctx =
  let c () = Essa_obs.Counter.create () in
  {
    x_method = `Rh;
    x_n = Array.length ctr;
    x_k = k;
    x_reserve = 0;
    x_ctr = ctr;
    x_ctr_ids = [||];
    x_ctr_vals = [||];
    x_ctr_cols = [||];
    x_premiums = [||];
    x_prem_ids = [||];
    x_prem_vals = [||];
    x_fleet = Essa_strategy.Roi_fleet.flat_p store;
    x_c_ta_sorted = c ();
    x_c_ta_random = c ();
    x_c_ta_seen = c ();
    x_c_reduced = c ();
  }

(* One case: [k] slots, [live] members after [holes] retirements,
   advertisers enrolled in a shuffled global-id order, bids and CTRs from
   small sets (ties) or continuous CTRs, and two reserves run back to
   back on one scratch (stale stamps and rows must not leak between
   auctions). *)
let gen_flat_case_at ~k ~live =
  let open QCheck2.Gen in
  let* holes = int_range 0 4 in
  let total = live + holes in
  let n = total + 2 in
  let* order = shuffle_a (Array.init n Fun.id) in
  let* retired = shuffle_a (Array.init total Fun.id) in
  let* bids = array_size (return total) (int_range 0 6) in
  let* prems = array_size (return total) (oneofl [ 0; 0; 0; 2; 5 ]) in
  let* ctr =
    array_size (return n)
      (array_size (return k)
         (oneof [ oneofl [ 0.0; 0.1; 0.25; 0.5 ]; float_range 0.0 1.0 ]))
  in
  let* reserves = pair (int_range 0 4) (int_range 0 7) in
  return (k, live, holes, order, retired, bids, prems, ctr, reserves)

(* The live counts at and around the regime boundaries: live <= k+1,
   k+1 < live < 2(k+1) and live >= 2(k+1) are all present for every k. *)
let boundary_lives k =
  [ 0; 1; k; k + 1; k + 2; (2 * k) + 1; (2 * k) + 2; (2 * k) + 3; 5 * k ]

let gen_flat_case =
  let open QCheck2.Gen in
  let* k = int_range 1 6 in
  let* live = oneofl (boundary_lives k) in
  gen_flat_case_at ~k ~live

let flat_case_matches (k, live, holes, order, retired, bids, prems, ctr, (r1, r2))
    =
  let n = Array.length ctr in
  let store =
    Sstore.create_flat ~num_keywords:1 ~n ~budgets:(Array.make n (-1))
      ~targets:(Array.make n 1.0) ()
  in
  Array.iteri
    (fun i bid ->
      Sstore.flat_enroll store ~keyword:0 ~adv:order.(i) ~value:50 ~maxbid:50
        ~bid ~premium:prems.(i))
    bids;
  for h = 0 to holes - 1 do
    Sstore.flat_retire store ~keyword:0 ~adv:order.(retired.(h))
  done;
  let x = flat_ctx ~ctr ~k store in
  let cap = (Sstore.flat_stats store ~keyword:0).Sstore.fs_capacity in
  let flat_s = Mechanism.make_scratch ~method_:`Rh ~n:cap ~k in
  let flat_kv = Mechanism.keyword_view x flat_s ~keyword:0 in
  assert (flat_kv.kv_live = live);
  (* The dense arm: the live members in slot order as advertisers
     0 .. live-1, with their CTR rows, bids and premiums. *)
  let slots = Mechanism.live_slots flat_kv in
  let dense_x =
    {
      x with
      x_n = live;
      x_ctr = Array.map (fun sl -> ctr.(flat_kv.kv_ids.(sl))) slots;
    }
  in
  let dense_kv =
    {
      Mechanism.kv_ids = Array.init live Fun.id;
      kv_bids = Array.map (fun sl -> flat_kv.kv_bids.(sl)) slots;
      kv_prems = Array.map (fun sl -> flat_kv.kv_prems.(sl)) slots;
      kv_len = live;
      kv_live = live;
    }
  in
  List.for_all
    (fun (arm, x, kv, s) ->
      List.for_all
        (fun reserve ->
          let a_ref, top, ncand = reference_rh_wd x ~reserve kv in
          let p_ref = reference_gsp x ~reserve ~assignment:a_ref ~top in
          Mechanism.reset_wd_stats s;
          let a, winners, w =
            match Mechanism.rh_winner_determination x s ~reserve kv with
            | { e_assignment; e_view = Scored { winners; w; _ } } ->
                (e_assignment, winners, w)
            | _ -> assert false
          in
          let p =
            Mechanism.gsp_from_candidates x s ~reserve ~assignment:a ~winners ~w
          in
          if a <> a_ref || p <> p_ref || s.Mechanism.wd_reduced <> ncand then
            QCheck2.Test.fail_reportf "%s k=%d live=%d reserve=%d: %s" arm k
              live reserve
              (if a <> a_ref then "assignments differ"
               else if p <> p_ref then "prices differ"
               else
                 Printf.sprintf "candidates %d vs %d" s.Mechanism.wd_reduced
                   ncand);
          Array.for_all2
            (fun cell slot ->
              match cell with
              | None -> slot = -1
              | Some gid -> kv.kv_ids.(slot) = gid)
            a winners)
        [ r1; r2 ])
    [
      ("flat", x, flat_kv, flat_s);
      ( "dense",
        dense_x,
        dense_kv,
        Mechanism.make_scratch ~method_:`Rh ~n:live ~k );
    ]

let prop_flat_wd_equals_reference =
  qtest ~count:1000 "flat WD + GSP = list-based reference" gen_flat_case
    flat_case_matches

(* Every (k, boundary live count) pair at fixed seeds, so each selection
   regime is exercised on every run, whatever the property drew. *)
let test_flat_wd_every_regime () =
  for k = 1 to 6 do
    List.iter
      (fun live ->
        for seed = 0 to 4 do
          let rand = Random.State.make [| k; live; seed |] in
          let case = QCheck2.Gen.generate1 ~rand (gen_flat_case_at ~k ~live) in
          if not (flat_case_matches case) then
            Alcotest.failf "k=%d live=%d seed=%d: winner slots disagree" k
              live seed
        done)
      (boundary_lives k)
  done

let regime ~k ~live =
  if live <= k + 1 then 0 else if live < 2 * (k + 1) then 1 else 2

(* Served-stream pin: a fixed-seed flat churn universe whose head
   partitions straddle k+1 and 2(k+1) live members, so the stream runs
   winner determination in all three selection regimes.  The digest of
   every summary's (assignment, prices, clicks, revenue) was computed
   with the list-based flat winner determination and the previous LAP;
   the engine must reproduce it bit-for-bit. *)
let test_served_stream_pin () =
  let u =
    Workload.universe ~keywords:50 ~n:650 ~zipf_s:1.1 ~budgeted_fraction:0.3
      ~brand_fraction:0.3 ~seed:41 ()
  in
  let q = Workload.universe_queries u ~seed:42 ~count:4000 in
  let store = Workload.universe_store ~churn:0.02 u () in
  let engine =
    Workload.make_flat_engine ~cache:false ~update_every:1 ~mechanism:`Classic
      u ~store
  in
  let k = Engine.k engine in
  let regimes = Array.make 3 0 in
  let outcomes =
    Array.map
      (fun kw ->
        let s = Engine.run_partitioned engine ~keyword:kw in
        let live = (Sstore.flat_stats store ~keyword:kw).Sstore.fs_live in
        let rg = regime ~k ~live in
        regimes.(rg) <- regimes.(rg) + 1;
        (s.Engine.assignment, s.Engine.prices, s.Engine.clicks, s.Engine.revenue))
      q
  in
  Alcotest.(check (array int)) "auctions per selection regime"
    [| 88; 3692; 220 |] regimes;
  Alcotest.(check string) "summary digest" "942d5f0691f500cf370de0d2fe6476f2"
    (Digest.to_hex (Digest.string (Marshal.to_string outcomes [])))

(* ------------------------------------------------------------------ *)
(* The SoA threshold algorithm against the generic one it replicates:
   [Essa_ta.Threshold.top_k] over closure sources (ctr, bids, slot-1
   premium), kept here as the oracle.  A dense `Rhtalu ctx over a logical
   fleet runs whole auctions — begin pass, both TAs, winner determination,
   pricing, billing under random clicks — so the bid lists the TAs read
   move between auctions; every auction must yield the same per-slot
   lists and the same sorted / random / seen tallies. *)

module Roi_fleet = Essa_strategy.Roi_fleet
module Threshold = Essa_ta.Threshold

let generic_ta_top_lists (x : Mechanism.ctx) ~reserve ~keyword ~count =
  let seq_of ids vals () = Seq.zip (Array.to_seq ids) (Array.to_seq vals) in
  let bids =
    {
      Threshold.sorted =
        (fun () ->
          Seq.map
            (fun (adv, b) -> (adv, float_of_int b))
            (Roi_fleet.bids_desc x.x_fleet ~keyword));
      lookup =
        (fun adv -> float_of_int (Roi_fleet.bid x.x_fleet ~adv ~keyword));
    }
  in
  let premium =
    {
      Threshold.sorted = seq_of x.x_prem_ids.(keyword) x.x_prem_vals.(keyword);
      lookup = (fun adv -> float_of_int x.x_premiums.(keyword).(adv));
    }
  in
  let reserve = float_of_int reserve in
  let tallies = ref (0, 0, 0) in
  let slot_top j =
    let ctr =
      {
        Threshold.sorted = seq_of x.x_ctr_ids.(j) x.x_ctr_vals.(j);
        lookup = (fun adv -> x.x_ctr.(adv).(j));
      }
    in
    (* Sub-reserve bids score 0, like the engine's scans; the step form
       keeps f monotone in every attribute, as TA requires. *)
    let top, (st : Threshold.stats) =
      if j = 0 then
        Threshold.top_k ~k:count
          ~f:(fun a ->
            if a.(1) < reserve then 0.0 else a.(0) *. (a.(1) +. a.(2)))
          [| ctr; bids; premium |]
      else
        Threshold.top_k ~k:count
          ~f:(fun a -> if a.(1) < reserve then 0.0 else a.(0) *. a.(1))
          [| ctr; bids |]
    in
    let sorted, random, seen = !tallies in
    tallies :=
      ( sorted + st.sorted_accesses,
        random + st.random_accesses,
        seen + st.seen_objects );
    top
  in
  let tops = Array.init x.x_k slot_top in
  (tops, !tallies)

(* The sorted-access lists are built from (id, value) pairs under the
   canonical order, independently of the engine's construction. *)
let dense_rhtalu_ctx ~ctr ~states ~reserve : Mechanism.ctx =
  let n = Array.length ctr and k = Array.length ctr.(0) in
  let desc values =
    let entries = Array.mapi (fun i v -> (i, v)) values in
    Array.sort
      (fun (ia, pa) (ib, pb) ->
        let c = Float.compare pb pa in
        if c <> 0 then c else Int.compare ia ib)
      entries;
    (Array.map fst entries, Array.map snd entries)
  in
  let ctr_cols = Array.init k (fun j -> Array.init n (fun i -> ctr.(i).(j))) in
  let ctr_ids, ctr_vals = Array.split (Array.map desc ctr_cols) in
  let premiums =
    Array.init (Essa_strategy.Roi_state.num_keywords states.(0)) (fun keyword ->
        Array.map (fun st -> Essa_strategy.Roi_state.premium st ~keyword) states)
  in
  let prem_ids, prem_vals =
    Array.split (Array.map (fun p -> desc (Array.map float_of_int p)) premiums)
  in
  let c () = Essa_obs.Counter.create () in
  {
    x_method = `Rhtalu;
    x_n = n;
    x_k = k;
    x_reserve = reserve;
    x_ctr = ctr;
    x_ctr_ids = ctr_ids;
    x_ctr_vals = ctr_vals;
    x_ctr_cols = ctr_cols;
    x_premiums = premiums;
    x_prem_ids = prem_ids;
    x_prem_vals = prem_vals;
    x_fleet = Roi_fleet.logical states;
    x_c_ta_sorted = c ();
    x_c_ta_random = c ();
    x_c_ta_seen = c ();
    x_c_reduced = c ();
  }

let prop_fast_ta_equals_generic =
  qtest ~count:4 "SoA fast TA = generic TA"
    QCheck2.Gen.(
      quad (int_range 1 1000) (int_range 8 60) (int_range 2 6) (int_range 0 6))
    (fun (seed, n, k, reserve) ->
      let wl =
        Workload.section5 ~seed ~n ~k ~num_keywords:4 ~budgeted_fraction:0.3
          ~brand_fraction:0.3 ()
      in
      let x =
        dense_rhtalu_ctx ~ctr:(Workload.ctr wl) ~states:(Workload.fresh_states wl)
          ~reserve
      in
      let s = Mechanism.make_scratch ~method_:`Rhtalu ~n ~k in
      let clicks = Essa_util.Rng.create (seed + 11) in
      let count = k + 1 in
      let agree = ref true in
      Array.iteri
        (fun i keyword ->
          let time = i + 1 in
          Roi_fleet.on_auction x.x_fleet ~time ~keyword;
          Mechanism.reset_wd_stats s;
          let fast = Mechanism.ta_top_lists x s ~reserve ~keyword ~count in
          let generic, tallies =
            generic_ta_top_lists x ~reserve ~keyword ~count
          in
          if
            fast <> generic
            || (s.wd_ta_sorted, s.wd_ta_random, s.wd_ta_seen) <> tallies
          then agree := false;
          let ev = Essa.Mech_classic.wd x s ~reserve ~keyword in
          let prices =
            Essa.Mech_classic.price_eval ~pricing:`Gsp x s ~reserve ~keyword ev
          in
          Array.iteri
            (fun j0 cell ->
              Option.iter
                (fun adv ->
                  Roi_fleet.record_win x.x_fleet ~time ~adv ~keyword
                    ~price:prices.(j0)
                    ~clicked:(Essa_util.Rng.bernoulli clicks x.x_ctr.(adv).(j0)))
                cell)
            ev.e_assignment)
        (Workload.queries wl ~seed:(seed + 7) ~count:120);
      !agree)

(* ------------------------------------------------------------------ *)
(* Stable matching: the solver's fixed point has no blocking pair.  A
   candidate would deviate to slot [j] when the effective price there
   (current price, +1 cent if occupied — the auction's ε) is within its
   max-price constraint, below its willingness to pay, and yields
   strictly more utility than its current seat.  At termination no such
   slot may exist, and every charged price respects the reserve and the
   winner's constraints. *)

let gen_stable_instance =
  QCheck2.Gen.(
    int_range 1 12 >>= fun n ->
    int_range 1 6 >>= fun k ->
    int_range 0 5 >>= fun reserve ->
    array_repeat n (int_range 0 40) >>= fun bids ->
    array_repeat n (int_range 0 10) >>= fun premiums ->
    array_repeat n (array_repeat k (int_range 0 48)) >>= fun caps ->
    array_repeat n (array_repeat k (float_range 0.0 0.9)) >>= fun raw_ctr ->
    (* Push small probabilities to exactly 0 so zero-CTR slots (never
       acceptable) are exercised. *)
    let ctr =
      Array.map (Array.map (fun c -> if c < 0.1 then 0.0 else c)) raw_ctr
    in
    return (n, k, reserve, bids, premiums, caps, ctr))

let prop_no_blocking_pair =
  qtest ~count:500 "ascending auction terminates stable (no blocking pair)"
    gen_stable_instance
    (fun (n, k, reserve, bids, premiums, caps, ctr) ->
      let out =
        Stable_match.solve ~bids
          ~ctr:(fun i j -> ctr.(i).(j))
          ~premiums
          ~max_price:(fun i j -> caps.(i).(j))
          ~reserve ~k ()
      in
      let wtp i j = bids.(i) + if j = 0 then premiums.(i) else 0 in
      let slot_of = Array.make n (-1) in
      Array.iteri
        (fun j -> function Some i -> slot_of.(i) <- j | None -> ())
        out.Stable_match.sm_assignment;
      (* Winner-side invariants. *)
      Array.iteri
        (fun j cell ->
          match cell with
          | None ->
              if out.Stable_match.sm_prices.(j) <> 0 then
                QCheck2.Test.fail_reportf "empty slot %d priced" j
          | Some i ->
              let p = out.Stable_match.sm_prices.(j) in
              if bids.(i) < reserve then
                QCheck2.Test.fail_reportf "sub-reserve bidder %d seated" i;
              if p < reserve then
                QCheck2.Test.fail_reportf "slot %d priced under reserve" j;
              if p > caps.(i).(j) then
                QCheck2.Test.fail_reportf "slot %d priced over the cap" j;
              if p >= wtp i j then
                QCheck2.Test.fail_reportf
                  "slot %d priced at or over willingness" j)
        out.Stable_match.sm_assignment;
      (* No blocking pair, for every candidate the auction admitted. *)
      for i = 0 to n - 1 do
        if bids.(i) >= reserve then begin
          let u_cur =
            if slot_of.(i) < 0 then 0.0
            else
              let s = slot_of.(i) in
              ctr.(i).(s)
              *. float_of_int (wtp i s - out.Stable_match.sm_prices.(s))
          in
          for j = 0 to k - 1 do
            if j <> slot_of.(i) then begin
              let occupied = out.Stable_match.sm_assignment.(j) <> None in
              (* Empty slots carry internal price = reserve even though
                 the outcome reports 0. *)
              let base =
                if occupied then out.Stable_match.sm_prices.(j) else reserve
              in
              let ep = base + if occupied then 1 else 0 in
              if
                ep <= caps.(i).(j)
                && wtp i j > ep
                && ctr.(i).(j) > 0.0
                && ctr.(i).(j) *. float_of_int (wtp i j - ep)
                   > u_cur +. 1e-9
              then
                QCheck2.Test.fail_reportf
                  "blocking pair: candidate %d prefers slot %d (ep=%d)" i j ep
            end
          done
        end
      done;
      true)

(* The two-bidder ascent by hand: bids 10 and 6 contest a single slot;
   prices climb a cent per eviction until the weaker bidder drops at its
   willingness to pay.  Winner 0 at exactly the runner-up's value — the
   auction recovers the second price. *)
let test_stable_two_bidder_ascent () =
  let out =
    Stable_match.solve ~bids:[| 10; 6 |]
      ~ctr:(fun _ _ -> 1.0)
      ~reserve:0 ~k:1 ()
  in
  Alcotest.(check (option int)) "winner" (Some 0)
    out.Stable_match.sm_assignment.(0);
  Alcotest.(check int) "second price" 6 out.Stable_match.sm_prices.(0)

(* ------------------------------------------------------------------ *)
(* Reserve: fixed floors are respected by every charged price, and a
   floor above every bid empties the keyword instead of seating anyone. *)

let test_reserve_fixed_floor_respected () =
  let wl =
    Workload.section5 ~seed:17 ~n:40 ~k:4 ~num_keywords:6 ~budgeted_fraction:0.3
      ()
  in
  let q = Workload.queries wl ~seed:18 ~count:400 in
  let engine =
    Workload.make_engine
      ~mechanism:(`Reserve (`Fixed [| 7; 9; 11; 7; 9; 11 |]))
      wl ~method_:`Rhtalu
  in
  let floors = [| 7; 9; 11; 7; 9; 11 |] in
  Array.iter
    (fun kw ->
      let s = Engine.run_auction engine ~keyword:kw in
      Array.iteri
        (fun j cell ->
          match cell with
          | None -> ()
          | Some _ ->
              if s.Engine.prices.(j) < floors.(kw) then
                Alcotest.failf "keyword %d slot %d priced %d under floor %d" kw
                  j
                  s.Engine.prices.(j)
                  floors.(kw))
        s.Engine.assignment)
    q

let test_reserve_floor_above_all_bids () =
  let wl = Workload.section5 ~seed:19 ~n:30 ~k:4 ~num_keywords:5 () in
  let q = Workload.queries wl ~seed:20 ~count:200 in
  (* Section V values are <= 50 cents; a 1000-cent floor outbids everyone. *)
  let engine =
    Workload.make_engine
      ~mechanism:(`Reserve (`Fixed (Array.make 5 1000)))
      wl ~method_:`Rhtalu
  in
  Array.iter
    (fun kw ->
      let s = Engine.run_auction engine ~keyword:kw in
      Alcotest.(check int) "no revenue" 0 s.Engine.revenue;
      Array.iter
        (function
          | Some _ -> Alcotest.fail "slot filled above the universal floor"
          | None -> ())
        s.Engine.assignment)
    q;
  Alcotest.(check int) "engine total revenue" 0 (Engine.total_revenue engine)

let test_reserve_fixed_validation () =
  let wl = Workload.section5 ~seed:21 ~n:10 ~k:3 ~num_keywords:6 () in
  let raises mechanism =
    match Workload.make_engine ~mechanism wl ~method_:`Rh with
    | (_ : Engine.t) -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "wrong-length floors rejected" true
    (raises (`Reserve (`Fixed [| 7 |])));
  Alcotest.(check bool) "negative floor rejected" true
    (raises (`Reserve (`Fixed [| 1; 2; 3; 4; 5; -1 |])))

(* ------------------------------------------------------------------ *)
(* Economic oracles: what the pricing rules are for, not only that two
   implementations agree.  Separable instances: slot j (0-based) has
   click probability alpha_j = 0.9 - 0.2j for every advertiser, and
   advertiser i bids its integer per-click value v_i in 1..50, so
   w.(i).(j) = alpha_j * v_i and the unassigned baseline is 0.
   Allocation is [Winner_determination.solve ~method_:`Rh]. *)

module Wd = Essa.Winner_determination
module Pricing = Essa.Pricing

let alpha j = 0.9 -. (0.2 *. float_of_int j)

let gen_separable =
  QCheck2.Gen.(
    int_range 1 7 >>= fun n ->
    int_range 1 4 >>= fun k ->
    array_repeat n (int_range 1 50) >>= fun values -> return (k, values))

let print_separable (k, values) =
  Printf.sprintf "k=%d values=[%s]" k
    (String.concat "; " (Array.to_list (Array.map string_of_int values)))

let separable_weights ~k bids =
  Array.map (fun b -> Array.init k (fun j -> alpha j *. float_of_int b)) bids

(* [(assignment, vcg payments)] when advertisers bid [bids]. *)
let vcg_outcome ~k bids =
  let w = separable_weights ~k bids in
  let base = Array.make (Array.length bids) 0.0 in
  let assignment = Wd.solve ~method_:`Rh ~w ~base in
  (assignment, Pricing.vcg ~w ~base ~assignment ())

(* VCG is exactly truthful: with the others bidding their values, no
   report in 0..50 gives advertiser i a higher expected utility
   (alpha of its slot * v_i - its VCG payment) than bidding v_i. *)
let prop_vcg_truthful =
  qtest ~count:200 "VCG: no unilateral misreport in 0..50 pays" ~print:print_separable
    gen_separable (fun (k, values) ->
      let utility i bids =
        let assignment, pay = vcg_outcome ~k bids in
        let gain = ref 0.0 in
        Array.iteri
          (fun j cell ->
            if cell = Some i then gain := alpha j *. float_of_int values.(i))
          assignment;
        !gain -. pay.(i)
      in
      Array.iteri
        (fun i v ->
          let truthful = utility i values in
          for report = 0 to 50 do
            if report <> v then begin
              let bids = Array.copy values in
              bids.(i) <- report;
              let u = utility i bids in
              if u > truthful +. 1e-6 then
                QCheck2.Test.fail_reportf
                  "advertiser %d (value %d) gains %.6f by reporting %d" i v
                  (u -. truthful) report
            end
          done)
        values;
      true)

(* Revenue order on truthful bids: paper-GSP <= VCG <= pay-as-bid.
   Paper-GSP prices every filled slot j from the best advertiser left
   unassigned: ceil (w_runner,j / alpha_j) cents per click, so its
   expected revenue is the sum over filled slots of that price times
   alpha_j.  On real numbers the order is exact: the winner of slot j
   pays sum_{l>=j} (alpha_l - alpha_{l+1}) b_(l+2) under VCG (b_(m) the
   m-th highest bid, alpha_k = 0), and every b_(l+2) is at least the
   runner-up's bid.  The whole-cent ceiling could lift a GSP price above
   the real-valued one by less than one cent per click, an allowance of
   at most alpha_j cents per filled slot; here it is zero, because
   w_runner,j / alpha_j is the runner's integer bid (up to float
   rounding, which [gsp_per_click]'s 1e-9 guard absorbs).  So the check
   allows float rounding only. *)
let prop_revenue_order =
  qtest ~count:500 "paper-GSP <= VCG <= pay-as-bid" ~print:print_separable
    gen_separable (fun (k, values) ->
      let w = separable_weights ~k values in
      let assignment, pay = vcg_outcome ~k values in
      let gsp =
        Pricing.gsp_per_click ~w ~ctr:(fun ~adv:_ ~slot -> alpha (slot - 1))
          ~assignment ()
      in
      let gsp_revenue = ref 0.0 in
      Array.iteri
        (fun j -> function
          | Some price -> gsp_revenue := !gsp_revenue +. (float_of_int price *. alpha j)
          | None -> ())
        gsp;
      let vcg_revenue = Array.fold_left ( +. ) 0.0 pay in
      let bid_revenue = Array.fold_left ( +. ) 0.0 (Pricing.pay_as_bid ~w ~assignment) in
      if !gsp_revenue > vcg_revenue +. 1e-6 || vcg_revenue > bid_revenue +. 1e-6 then
        QCheck2.Test.fail_reportf "gsp %.6f, vcg %.6f, pay-as-bid %.6f"
          !gsp_revenue vcg_revenue bid_revenue;
      true)

(* Per-advertiser CTRs, as Section V draws them: advertiser i's click
   probability in slot j (0-based) lies in the slot's own interval
   [0.80 - 0.2j, 0.95 - 0.2j], so the weights are no longer a product of
   a slot factor and a bid.  Each advertiser still reports one number,
   its per-click bid, and w.(i).(j) = ctr.(i).(j) * bid_i. *)
let gen_per_advertiser =
  QCheck2.Gen.(
    int_range 1 7 >>= fun n ->
    int_range 1 4 >>= fun k ->
    array_repeat n (int_range 1 50) >>= fun values ->
    array_repeat n (array_repeat k (int_range 0 15)) >>= fun offsets ->
    let ctr =
      Array.map
        (Array.mapi (fun j off -> float_of_int (80 - (20 * j) + off) /. 100.0))
        offsets
    in
    return (ctr, values))

let print_per_advertiser (ctr, values) =
  Printf.sprintf "values=[%s] ctr=[%s]"
    (String.concat "; " (Array.to_list (Array.map string_of_int values)))
    (String.concat "; "
       (Array.to_list
          (Array.map
             (fun row ->
               String.concat "," (Array.to_list (Array.map (Printf.sprintf "%.2f") row)))
             ctr)))

let per_advertiser_weights ctr bids =
  Array.mapi (fun i row -> Array.map (fun c -> c *. float_of_int bids.(i)) row) ctr

(* Advertiser i's expected utility (its CTR in the slot it wins times its
   true value, minus its VCG payment) when everyone bids [bids]. *)
let vcg_utility ctr values i bids =
  let w = per_advertiser_weights ctr bids in
  let base = Array.make (Array.length bids) 0.0 in
  let assignment = Wd.solve ~method_:`Rh ~w ~base in
  let pay = Pricing.vcg ~w ~base ~assignment () in
  let gain = ref 0.0 in
  Array.iteri
    (fun j cell -> if cell = Some i then gain := ctr.(i).(j) *. float_of_int values.(i))
    assignment;
  !gain -. pay.(i)

(* VCG's truthfulness does not need separable CTRs: the true valuation
   ctr.(i).(j) * v_i is one the bidder can report, and VCG maximises
   reported welfare, so no misreport in 0..50 pays. *)
let prop_vcg_truthful_per_advertiser =
  qtest ~count:100 "VCG, per-advertiser CTRs: no misreport pays"
    ~print:print_per_advertiser gen_per_advertiser (fun (ctr, values) ->
      Array.iteri
        (fun i v ->
          let truthful = vcg_utility ctr values i values in
          for report = 0 to 50 do
            if report <> v then begin
              let bids = Array.copy values in
              bids.(i) <- report;
              let u = vcg_utility ctr values i bids in
              if u > truthful +. 1e-6 then
                QCheck2.Test.fail_reportf
                  "advertiser %d (value %d) gains %.6f by reporting %d" i v
                  (u -. truthful) report
            end
          done)
        values;
      true)

(* The Clarke pivot, checked against brute force: a truthful bidder's VCG
   utility is its marginal contribution to welfare, W(N) - W(N \ i), so
   a loser earns exactly 0 and no winner earns less than 0. *)
let prop_vcg_utility_is_marginal =
  qtest ~count:100 "VCG utility = marginal welfare (brute force)"
    ~print:print_per_advertiser gen_per_advertiser (fun (ctr, values) ->
      let w = per_advertiser_weights ctr values in
      let n = Array.length w in
      let welfare w =
        snd (Essa_matching.Brute.best ~w ~base:(Array.make (Array.length w) 0.0) ())
      in
      let all = welfare w in
      for i = 0 to n - 1 do
        let without = welfare (Array.of_list (List.filteri (fun i' _ -> i' <> i) (Array.to_list w))) in
        let u = vcg_utility ctr values i values in
        if abs_float (u -. (all -. without)) > 1e-6 then
          QCheck2.Test.fail_reportf "advertiser %d: utility %.6f, marginal welfare %.6f" i u
            (all -. without)
      done;
      true)

let () =
  Alcotest.run "essa_mechanism"
    [
      ( "equivalence",
        [
          Alcotest.test_case "default construction is classic GSP" `Quick
            test_default_is_classic;
          Alcotest.test_case "mechanism names" `Quick test_mechanism_names;
          prop_fast_ta_equals_generic;
        ] );
      ( "flat_wd",
        [
          prop_flat_wd_equals_reference;
          Alcotest.test_case "every selection regime, fixed seeds" `Quick
            test_flat_wd_every_regime;
          Alcotest.test_case "served stream pinned" `Quick
            test_served_stream_pin;
        ] );
      ( "stable_match",
        [
          prop_no_blocking_pair;
          Alcotest.test_case "two-bidder ascent" `Quick
            test_stable_two_bidder_ascent;
        ] );
      ( "reserve",
        [
          Alcotest.test_case "fixed floors respected" `Quick
            test_reserve_fixed_floor_respected;
          Alcotest.test_case "floor above all bids empties the keyword" `Quick
            test_reserve_floor_above_all_bids;
          Alcotest.test_case "floor validation" `Quick
            test_reserve_fixed_validation;
        ] );
      ( "economics",
        [
          prop_vcg_truthful;
          prop_revenue_order;
          prop_vcg_truthful_per_advertiser;
          prop_vcg_utility_is_marginal;
        ] );
    ]
