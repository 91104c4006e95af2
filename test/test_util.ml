(* Unit and property tests for the essa_util substrate. *)

open Essa_util

let qtest ?(count = 300) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seeds_differ () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref true in
  for _ = 1 to 10 do
    if Rng.bits64 a <> Rng.bits64 b then same := false
  done;
  Alcotest.(check bool) "different streams" false !same

let test_rng_copy () =
  let a = Rng.create 7 in
  ignore (Rng.bits64 a);
  let b = Rng.copy a in
  for _ = 1 to 50 do
    Alcotest.(check int64) "copy continues identically" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_split_independent () =
  let a = Rng.create 7 in
  let b = Rng.split a ~key:0 in
  let same = ref true in
  for _ = 1 to 10 do
    if Rng.bits64 a <> Rng.bits64 b then same := false
  done;
  Alcotest.(check bool) "split independent" false !same

let test_rng_split_disjoint_streams () =
  (* Children for distinct keys must not collide: draw a prefix from each
     of many child streams and check global uniqueness.  With 64-bit
     outputs any collision would be astronomically unlikely unless two
     streams coincide. *)
  let parent = Rng.create 13 in
  let tbl = Hashtbl.create 4096 in
  for key = 0 to 63 do
    let child = Rng.split parent ~key in
    for _ = 1 to 32 do
      let v = Rng.bits64 child in
      if Hashtbl.mem tbl v then
        Alcotest.failf "collision across child streams (key %d)" key;
      Hashtbl.add tbl v ()
    done
  done

let test_rng_split_pure_and_permutable () =
  (* split must not advance the parent, so the family of children is
     independent of the order keys are requested in. *)
  let a = Rng.create 99 and b = Rng.create 99 in
  let keys = [ 4; 0; 7; 2 ] in
  let draw t = Rng.bits64 (Rng.copy t) in
  let children_a = List.map (fun key -> (key, draw (Rng.split a ~key))) keys in
  let children_b =
    List.rev_map (fun key -> (key, draw (Rng.split b ~key))) keys
  in
  List.iter
    (fun (key, v) ->
      Alcotest.(check int64)
        (Printf.sprintf "key %d reproducible under permutation" key)
        v (List.assoc key children_b))
    children_a;
  (* Parent stream unaffected by the splits. *)
  Alcotest.(check int64) "parent untouched" (Rng.bits64 (Rng.create 99))
    (Rng.bits64 a)

let test_rng_int_bounds () =
  let rng = Rng.create 3 in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 7 in
    if not (v >= 0 && v < 7) then Alcotest.fail "out of [0,7)"
  done

let test_rng_int_in_bounds () =
  let rng = Rng.create 3 in
  for _ = 1 to 10_000 do
    let v = Rng.int_in rng (-5) 5 in
    if not (v >= -5 && v <= 5) then Alcotest.fail "out of [-5,5]"
  done

let test_rng_int_invalid () =
  let rng = Rng.create 1 in
  Alcotest.check_raises "bound 0"
    (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int rng 0))

let test_rng_float_bounds () =
  let rng = Rng.create 5 in
  for _ = 1 to 10_000 do
    let v = Rng.float rng 2.5 in
    if not (v >= 0.0 && v < 2.5) then Alcotest.fail "out of [0,2.5)"
  done

let test_rng_int_covers_range () =
  let rng = Rng.create 11 in
  let seen = Array.make 5 false in
  for _ = 1 to 1000 do
    seen.(Rng.int rng 5) <- true
  done;
  Alcotest.(check bool) "all values hit" true (Array.for_all (fun b -> b) seen)

let test_rng_bernoulli_extremes () =
  let rng = Rng.create 2 in
  for _ = 1 to 100 do
    if Rng.bernoulli rng 0.0 then Alcotest.fail "p=0 returned true";
    if not (Rng.bernoulli rng 1.0) then Alcotest.fail "p=1 returned false"
  done

let test_rng_shuffle_permutation () =
  let rng = Rng.create 9 in
  let a = Array.init 50 (fun i -> i) in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 (fun i -> i)) sorted

let test_rng_pick_empty () =
  let rng = Rng.create 1 in
  Alcotest.check_raises "empty" (Invalid_argument "Rng.pick: empty array")
    (fun () -> ignore (Rng.pick rng ([||] : int array)))

(* The streams themselves are pinned: the first 1,000 draws of each kind,
   for three seeds, rendered exactly ([%h] is the float's bits) and
   digested.  The pins were computed on the boxed-state generator, so a
   change of representation that moves one draw fails here.  The bounds
   and probabilities cycle, so rejection sampling in [int] and both
   clamps of [bernoulli] are on the stream. *)
let rng_stream_digest seed kind =
  let t = Rng.create seed in
  let b = Buffer.create 16_384 in
  for i = 0 to 999 do
    (match kind with
    | `Bits64 -> Buffer.add_string b (Int64.to_string (Rng.bits64 t))
    | `Int ->
        let bound = [| 1; 7; 1000; (1 lsl 61) + 1 |].(i mod 4) in
        Buffer.add_string b (string_of_int (Rng.int t bound))
    | `Float -> Buffer.add_string b (Printf.sprintf "%h" (Rng.float t 3.5))
    | `Bernoulli ->
        let p = float_of_int ((i mod 13) - 1) /. 10.0 in
        Buffer.add_char b (if Rng.bernoulli t p then '1' else '0')
    | `Bool -> Buffer.add_char b (if Rng.bool t then '1' else '0'));
    Buffer.add_char b ' '
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

let rng_stream_pins =
  [
    (`Bits64, "bits64", [ "b3b64719e11b8ffa0f48c26fdb80fb61";
                          "14592a6b13851b3d808c3f687a3c8f74";
                          "83ae17e7feacf89d957af5e3e2d29f67" ]);
    (`Int, "int", [ "c248fcc850857abfa732847a56cd19c2";
                    "383b523a672378b33cb5bb63c9ac40f5";
                    "392650dda3de5bcf12fb046bfc67d158" ]);
    (`Float, "float", [ "398e64e124e0fb29f8550a807c02a774";
                        "28e9b8b4c77b01ca745dad8980e48e9a";
                        "562970f5392e39e4259d78a413c0dd67" ]);
    (`Bernoulli, "bernoulli", [ "11fa13793431253b7be2e1bf6f654100";
                                "91c2657c8437d72ad0c0a5d2a88531b6";
                                "fe59d371361e1cbee9dc6ad593554027" ]);
    (`Bool, "bool", [ "f9fb377fbd59198e79ddc1191eb5f497";
                      "a8bdf9ca70e70c8a572672137b58f5fe";
                      "d4767b078c5043a6251b8ec2dd2febfc" ]);
  ]

let test_rng_stream_pins () =
  List.iter
    (fun (kind, name, digests) ->
      List.iter2
        (fun seed digest ->
          Alcotest.(check string)
            (Printf.sprintf "%s, seed %d" name seed)
            digest (rng_stream_digest seed kind))
        [ 0; 42; -7 ] digests)
    rng_stream_pins

(* The raw state is the generator: [state] / [of_state] / [set_state]
   resume the exact stream (the snapshot images store it), [copy] forks
   it, and [split] is a pure function of it.  The three states below were
   computed on the boxed-state generator. *)
let test_rng_state_round_trips () =
  let t = Rng.create 5 in
  ignore (Rng.bits64 t);
  Alcotest.(check int64) "state" 6122321498889110001L (Rng.state t);
  Alcotest.(check int64) "split state" (-2861105488852967667L)
    (Rng.state (Rng.split t ~key:3));
  Alcotest.(check int64) "seeded state" (-2622165800321222925L)
    (Rng.state (Rng.create (-7)));
  let next t = List.init 8 (fun _ -> Rng.bits64 t) in
  let resumed = Rng.of_state (Rng.state t) in
  let copied = Rng.copy t in
  let child = Rng.split t ~key:3 in
  let child_again = Rng.of_state (Rng.state (Rng.split t ~key:3)) in
  let expect = next t in
  Alcotest.(check (list int64)) "of_state resumes" expect (next resumed);
  Alcotest.(check (list int64)) "copy resumes" expect (next copied);
  Alcotest.(check (list int64)) "split child reproducible" (next child)
    (next child_again);
  let rewound = Rng.create 1 in
  Rng.set_state rewound (Rng.state resumed);
  Alcotest.(check (list int64)) "set_state resumes" (next resumed)
    (next rewound);
  Alcotest.(check int64) "copies are independent" (Rng.state resumed)
    (Rng.state rewound)

(* Click sampling draws once per filled slot of every auction: a draw
   allocates nothing.  Same idiom as test_obs's histogram record path.
   [p] is a constant: a float computed at the call site would be boxed
   to cross the call in the dev profile, which compiles each module
   opaquely, and that word would be the caller's, not the generator's. *)
let test_rng_draws_no_alloc () =
  let t = Rng.create 3 in
  let hits = ref 0 in
  ignore (Rng.bernoulli t 0.3);
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    if Rng.bernoulli t 0.3 then incr hits
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "allocation-free bernoulli (%.0f words, %d hits)" words
       !hits)
    true (words = 0.0)

(* ------------------------------------------------------------------ *)
(* Topk *)

let topk_reference k l =
  List.filteri (fun i _ -> i < k) (List.sort (fun a b -> compare b a) l)

let prop_topk_matches_sort =
  qtest "topk = sort-take-k"
    QCheck2.Gen.(pair (int_bound 20) (list_size (int_bound 200) (int_range (-50) 50)))
    (fun (k, l) ->
      let t = Topk.create ~k ~compare:Int.compare in
      List.iter (fun x -> ignore (Topk.offer t x)) l;
      (* Values (not identities) must match the sorted prefix. *)
      Topk.to_sorted_list t = topk_reference k l)

let test_topk_zero () =
  let t = Topk.create ~k:0 ~compare:Int.compare in
  Alcotest.(check bool) "offer rejected" false (Topk.offer t 5);
  Alcotest.(check (list int)) "empty" [] (Topk.to_sorted_list t)

let test_topk_threshold () =
  let t = Topk.create ~k:2 ~compare:Int.compare in
  Alcotest.(check (option int)) "not full" None (Topk.threshold t);
  ignore (Topk.offer t 3);
  ignore (Topk.offer t 7);
  Alcotest.(check (option int)) "min retained" (Some 3) (Topk.threshold t);
  ignore (Topk.offer t 5);
  Alcotest.(check (option int)) "evicted 3" (Some 5) (Topk.threshold t)

let test_topk_tie_rejected () =
  let t = Topk.create ~k:1 ~compare:(fun (a, _) (b, _) -> Int.compare a b) in
  ignore (Topk.offer t (5, "first"));
  Alcotest.(check bool) "equal element rejected" false (Topk.offer t (5, "second"));
  Alcotest.(check (list (pair int string))) "first wins" [ (5, "first") ]
    (Topk.to_sorted_list t)

let test_topk_floats () =
  (* Regression guard: float elements exercise the lazily allocated heap
     (flat float arrays would be unsound with a magic dummy element). *)
  let t = Topk.create ~k:3 ~compare:Float.compare in
  List.iter (fun x -> ignore (Topk.offer t x)) [ 0.5; -1.0; 3.25; 2.0; 0.1 ];
  Alcotest.(check (list (float 1e-9))) "top3" [ 3.25; 2.0; 0.5 ] (Topk.to_sorted_list t)

let test_topk_negative_k () =
  Alcotest.check_raises "k<0" (Invalid_argument "Topk.create: k < 0") (fun () ->
      ignore (Topk.create ~k:(-1) ~compare:Int.compare))

let test_topk_of_array () =
  Alcotest.(check (list int)) "of_array" [ 9; 8 ]
    (Topk.of_array ~k:2 ~compare:Int.compare [| 3; 9; 1; 8; 2 |])

(* ------------------------------------------------------------------ *)
(* Min_heap *)

let prop_min_heap_sorts =
  qtest "pop order is ascending"
    QCheck2.Gen.(list_size (int_bound 200) (float_range (-100.0) 100.0))
    (fun l ->
      let h = Min_heap.create () in
      List.iter (fun p -> Min_heap.push h ~priority:p p) l;
      let rec drain acc =
        match Min_heap.pop h with
        | None -> List.rev acc
        | Some (p, _) -> drain (p :: acc)
      in
      drain [] = List.sort compare l)

let test_min_heap_pop_le () =
  let h = Min_heap.create () in
  List.iter (fun p -> Min_heap.push h ~priority:(float_of_int p) p) [ 5; 1; 9; 3; 7 ];
  let popped = Min_heap.pop_le h 5.0 in
  Alcotest.(check (list int)) "ascending <= 5" [ 1; 3; 5 ] (List.map snd popped);
  Alcotest.(check int) "rest remains" 2 (Min_heap.size h)

let test_min_heap_empty () =
  let h : int Min_heap.t = Min_heap.create () in
  Alcotest.(check bool) "is_empty" true (Min_heap.is_empty h);
  Alcotest.(check bool) "min of empty" true (Min_heap.min_priority h = None);
  Alcotest.(check bool) "pop empty" true (Min_heap.pop h = None)

let prop_min_heap_multiset =
  (* Popping everything returns exactly the pushed multiset: duplicate
     priorities (forced by the tiny range) each surface once, with their
     own payloads. *)
  qtest "pop-all preserves the pushed multiset"
    QCheck2.Gen.(list_size (int_bound 100) (int_range 0 6))
    (fun l ->
      let h = Min_heap.create () in
      List.iteri
        (fun i p -> Min_heap.push h ~priority:(float_of_int p) (p, i))
        l;
      let rec drain acc =
        match Min_heap.pop h with
        | None -> List.rev acc
        | Some (pri, (p, i)) -> drain ((pri, p, i) :: acc)
      in
      let popped = drain [] in
      List.for_all (fun (pri, p, _) -> pri = float_of_int p) popped
      && (let pris = List.map (fun (pri, _, _) -> pri) popped in
          pris = List.sort compare pris)
      && List.sort compare (List.map (fun (_, p, i) -> (p, i)) popped)
         = List.sort compare (List.mapi (fun i p -> (p, i)) l))

let prop_min_heap_pop_le_exact =
  (* pop_le returns exactly the ≤-threshold entries in ascending order
     and leaves the rest intact. *)
  qtest "pop_le = the <= v entries, ascending; remainder intact"
    QCheck2.Gen.(
      pair (int_range 0 6) (list_size (int_bound 80) (int_range 0 6)))
    (fun (v, l) ->
      let v = float_of_int v in
      let h = Min_heap.create () in
      List.iter (fun p -> Min_heap.push h ~priority:(float_of_int p) p) l;
      let le = List.map fst (Min_heap.pop_le h v) in
      let expected =
        List.sort compare
          (List.filter_map
             (fun p -> if float_of_int p <= v then Some (float_of_int p) else None)
             l)
      in
      le = expected
      && Min_heap.size h = List.length l - List.length le
      && (Min_heap.is_empty h
         || match Min_heap.min_priority h with
            | Some m -> m > v
            | None -> false))

let prop_min_heap_retain =
  (* retain keeps exactly the entries whose payload passes, still popping
     in ascending priority order. *)
  qtest "retain = filter; pop order still ascending"
    QCheck2.Gen.(
      pair (int_range 1 4) (list_size (int_bound 100) (int_range 0 6)))
    (fun (m, l) ->
      let h = Min_heap.create () in
      List.iteri (fun i p -> Min_heap.push h ~priority:(float_of_int p) i) l;
      Min_heap.retain h (fun i -> i mod m = 0);
      let rec drain acc =
        match Min_heap.pop h with
        | None -> List.rev acc
        | Some (pri, i) -> drain ((pri, i) :: acc)
      in
      let popped = drain [] in
      let pris = List.map fst popped in
      pris = List.sort compare pris
      && List.sort compare popped
         = List.sort compare
             (List.filteri (fun i _ -> i mod m = 0)
                (List.mapi (fun i p -> (float_of_int p, i)) l)))

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_stats_mean () =
  Alcotest.(check (float 1e-9)) "mean" 2.5 (Stats.mean [| 1.; 2.; 3.; 4. |])

let test_stats_empty_mean () =
  Alcotest.(check bool) "nan" true (Float.is_nan (Stats.mean [||]))

let test_stats_stddev () =
  (* values 1,2,3,5: mean 2.75, Σ(x-μ)² = 8.75, sample variance 8.75/3 *)
  Alcotest.(check (float 1e-9)) "stddev" (sqrt (8.75 /. 3.0))
    (Stats.stddev [| 1.; 2.; 3.; 5. |]);
  Alcotest.(check (float 1e-9)) "single" 0.0 (Stats.stddev [| 42.0 |])

let test_stats_median () =
  Alcotest.(check (float 1e-9)) "odd" 3.0 (Stats.median [| 5.; 1.; 3. |]);
  Alcotest.(check (float 1e-9)) "even" 2.5 (Stats.median [| 4.; 1.; 2.; 3. |])

let test_stats_percentile () =
  let a = [| 10.; 20.; 30.; 40. |] in
  Alcotest.(check (float 1e-9)) "p0" 10.0 (Stats.percentile a 0.0);
  Alcotest.(check (float 1e-9)) "p100" 40.0 (Stats.percentile a 100.0);
  Alcotest.(check (float 1e-9)) "p50" 25.0 (Stats.percentile a 50.0)

let test_stats_percentile_clamp () =
  (* Regression: p < 0 used to index out of bounds, p > 100 silently
     extrapolated past the largest element. *)
  let a = [| 10.; 20.; 30.; 40. |] in
  Alcotest.(check (float 1e-9)) "p<0 clamps to min" 10.0
    (Stats.percentile a (-5.0));
  Alcotest.(check (float 1e-9)) "p>100 clamps to max" 40.0
    (Stats.percentile a 120.0);
  Alcotest.check_raises "NaN percentile"
    (Invalid_argument "Stats.percentile: NaN percentile") (fun () ->
      ignore (Stats.percentile a Float.nan))

let test_stats_sort_nan_first () =
  (* Float.compare gives NaN a defined position (first); the old
     polymorphic compare left the sort order unspecified. *)
  Alcotest.(check (float 1e-9)) "p100 with a NaN present" 2.0
    (Stats.percentile [| Float.nan; 2.; 1. |] 100.0)

let test_stats_min_max () =
  Alcotest.(check (pair (float 0.) (float 0.))) "min/max" (1.0, 9.0)
    (Stats.min_max [| 3.; 1.; 9.; 4. |]);
  Alcotest.check_raises "empty" (Invalid_argument "Stats.min_max: empty array")
    (fun () -> ignore (Stats.min_max [||]))

let test_stats_min_max_nan () =
  (* Regression: under polymorphic min/max a NaN's effect depended on its
     position (min nan x = x but min x nan = nan), so permutations of the
     same data disagreed.  The Float.compare policy is position-free:
     any NaN is the minimum, and the maximum ignores NaNs unless the
     array is all-NaN. *)
  let check_perm label a =
    let lo, hi = Stats.min_max a in
    Alcotest.(check bool) (label ^ ": min is NaN") true (Float.is_nan lo);
    Alcotest.(check (float 0.)) (label ^ ": max ignores NaN") 2.0 hi
  in
  check_perm "nan first" [| Float.nan; 1.; 2. |];
  check_perm "nan middle" [| 1.; Float.nan; 2. |];
  check_perm "nan last" [| 1.; 2.; Float.nan |];
  let lo, hi = Stats.min_max [| Float.nan; Float.nan |] in
  Alcotest.(check bool) "all-NaN: min" true (Float.is_nan lo);
  Alcotest.(check bool) "all-NaN: max" true (Float.is_nan hi)

let prop_kahan_sum =
  qtest "kahan sum close to sorted naive sum"
    QCheck2.Gen.(list_size (int_bound 100) (float_range (-1000.0) 1000.0))
    (fun l ->
      let a = Array.of_list l in
      let naive = List.fold_left ( +. ) 0.0 (List.sort compare l) in
      abs_float (Stats.sum a -. naive) < 1e-6)

(* ------------------------------------------------------------------ *)
(* Timing *)

let test_timing_monotonic () =
  let a = Timing.now_ns () in
  let b = Timing.now_ns () in
  Alcotest.(check bool) "non-decreasing" true (Int64.compare b a >= 0)

let test_timing_time_ms () =
  let result, ms = Timing.time_ms (fun () -> 40 + 2) in
  Alcotest.(check int) "result" 42 result;
  Alcotest.(check bool) "non-negative" true (ms >= 0.0)

let test_timing_repeat_invalid () =
  Alcotest.check_raises "n<=0" (Invalid_argument "Timing.repeat_time_ms: n <= 0")
    (fun () -> ignore (Timing.repeat_time_ms 0 (fun () -> ())))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "essa_util"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "seeds differ" `Quick test_rng_seeds_differ;
          Alcotest.test_case "copy" `Quick test_rng_copy;
          Alcotest.test_case "split" `Quick test_rng_split_independent;
          Alcotest.test_case "split disjoint streams" `Quick
            test_rng_split_disjoint_streams;
          Alcotest.test_case "split pure + permutable" `Quick
            test_rng_split_pure_and_permutable;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int_in bounds" `Quick test_rng_int_in_bounds;
          Alcotest.test_case "int invalid" `Quick test_rng_int_invalid;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          Alcotest.test_case "int covers range" `Quick test_rng_int_covers_range;
          Alcotest.test_case "bernoulli extremes" `Quick test_rng_bernoulli_extremes;
          Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "pick empty" `Quick test_rng_pick_empty;
          Alcotest.test_case "stream pins" `Quick test_rng_stream_pins;
          Alcotest.test_case "state round trips" `Quick
            test_rng_state_round_trips;
          Alcotest.test_case "draws allocate nothing" `Quick
            test_rng_draws_no_alloc;
        ] );
      ( "topk",
        [
          prop_topk_matches_sort;
          Alcotest.test_case "k=0" `Quick test_topk_zero;
          Alcotest.test_case "threshold" `Quick test_topk_threshold;
          Alcotest.test_case "tie rejected" `Quick test_topk_tie_rejected;
          Alcotest.test_case "float elements" `Quick test_topk_floats;
          Alcotest.test_case "negative k" `Quick test_topk_negative_k;
          Alcotest.test_case "of_array" `Quick test_topk_of_array;
        ] );
      ( "min_heap",
        [
          prop_min_heap_sorts;
          prop_min_heap_multiset;
          prop_min_heap_pop_le_exact;
          prop_min_heap_retain;
          Alcotest.test_case "pop_le" `Quick test_min_heap_pop_le;
          Alcotest.test_case "empty" `Quick test_min_heap_empty;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean" `Quick test_stats_mean;
          Alcotest.test_case "mean empty" `Quick test_stats_empty_mean;
          Alcotest.test_case "stddev" `Quick test_stats_stddev;
          Alcotest.test_case "median" `Quick test_stats_median;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "percentile clamp" `Quick test_stats_percentile_clamp;
          Alcotest.test_case "NaN sorts first" `Quick test_stats_sort_nan_first;
          Alcotest.test_case "min_max" `Quick test_stats_min_max;
          Alcotest.test_case "min_max NaN policy" `Quick test_stats_min_max_nan;
          prop_kahan_sum;
        ] );
      ( "timing",
        [
          Alcotest.test_case "monotonic" `Quick test_timing_monotonic;
          Alcotest.test_case "time_ms" `Quick test_timing_time_ms;
          Alcotest.test_case "repeat invalid" `Quick test_timing_repeat_invalid;
        ] );
    ]
