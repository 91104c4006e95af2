(* Tests for bipartite matching (essa_matching): Hungarian in both
   orientations, the reduced-graph technique, brute force, and the tree
   top-k aggregation. *)

open Essa_matching

let qtest ?(count = 300) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let gen_weights =
  let open QCheck2.Gen in
  let* n = int_range 1 7 in
  let* k = int_range 1 4 in
  array_size (return n) (array_size (return k) (float_range (-10.0) 30.0))

let gen_weights_large =
  let open QCheck2.Gen in
  let* n = int_range 1 60 in
  let* k = int_range 1 8 in
  array_size (return n) (array_size (return k) (float_range (-10.0) 30.0))

let zeros w = Array.make (Array.length w) 0.0

(* ------------------------------------------------------------------ *)
(* Assignment *)

let test_assignment_utilities () =
  let a = [| Some 2; None; Some 0 |] in
  Assignment.validate ~n:3 a;
  Alcotest.(check (list int)) "advertisers" [ 2; 0 ] (Assignment.advertisers a);
  Alcotest.(check (option int)) "slot_of" (Some 3) (Assignment.slot_of a 0);
  Alcotest.(check (option int)) "unassigned" None (Assignment.slot_of a 1);
  let w = [| [| 1.; 2.; 3. |]; [| 4.; 5.; 6. |]; [| 7.; 8.; 9. |] |] in
  Alcotest.(check (float 1e-9)) "matching weight" 10.0 (Assignment.matching_weight ~w a);
  let base = [| 0.5; 0.25; 0.125 |] in
  Alcotest.(check (float 1e-9)) "total with base" 10.25 (Assignment.total_value ~w ~base a)

let test_assignment_validate_rejects () =
  Alcotest.(check bool) "duplicate" true
    (match Assignment.validate ~n:3 [| Some 1; Some 1 |] with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool) "out of range" true
    (match Assignment.validate ~n:2 [| Some 5 |] with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Hungarian vs brute force *)

let prop_hungarian_optimal =
  qtest "hungarian = brute force" gen_weights (fun w ->
      let base = zeros w in
      let _, best = Brute.best ~w ~base () in
      let a = Hungarian.solve ~w in
      Assignment.validate ~n:(Array.length w) a;
      abs_float (Assignment.total_value ~w ~base a -. best) < 1e-6)

let prop_classic_equals_fast =
  qtest "classic = slot-major optimum" gen_weights_large (fun w ->
      let a = Hungarian.solve ~w in
      let b = Hungarian.solve_classic ~w in
      Assignment.validate ~n:(Array.length w) b;
      abs_float (Assignment.matching_weight ~w a -. Assignment.matching_weight ~w b) < 1e-6)

let test_hungarian_negative_weights_unused () =
  let w = [| [| -5.0; -1.0 |]; [| -2.0; -3.0 |] |] in
  let a = Hungarian.solve ~w in
  Alcotest.(check bool) "all empty" true (Array.for_all (fun c -> c = None) a);
  let b = Hungarian.solve_classic ~w in
  Alcotest.(check bool) "classic all empty" true (Array.for_all (fun c -> c = None) b)

let test_hungarian_zero_weights_leave_slots_empty () =
  (* Worthless (zero-weight) assignments are never made — an advertiser
     who bid nothing on this query cannot be shown. *)
  let w = [| [| 0.0; 0.0 |]; [| 0.0; 5.0 |] |] in
  Alcotest.(check bool) "only the real edge" true
    (Hungarian.solve ~w = [| None; Some 1 |]);
  Alcotest.(check bool) "classic agrees" true
    (Hungarian.solve_classic ~w = [| None; Some 1 |]);
  let all_zero = Array.make_matrix 4 3 0.0 in
  Alcotest.(check bool) "all-zero -> all empty" true
    (Array.for_all (fun c -> c = None) (Hungarian.solve ~w:all_zero))

let test_hungarian_more_slots_than_advertisers () =
  let w = [| [| 3.0; 7.0; 1.0 |] |] in
  let a = Hungarian.solve ~w in
  Alcotest.(check bool) "takes best slot" true (a = [| None; Some 0; None |])

let test_hungarian_empty () =
  Alcotest.(check bool) "no advertisers" true (Hungarian.solve ~w:[||] = [||])

let test_hungarian_ragged_rejected () =
  Alcotest.(check bool) "ragged" true
    (match Hungarian.solve ~w:[| [| 1.0 |]; [| 1.0; 2.0 |] |] with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* The reduced LAP against its reference: the list-free kernel behind
   [Hungarian.solve] (contiguous costs, collapsed free null columns) must
   return exactly the assignment of the straightforward scan below — the
   previous kernel, kept verbatim — including every tie-break.  Small
   integer weights with zeros and negatives force ties and matched null
   columns; n < k leaves slots to the nulls outright. *)

let lap_reduced ~nrows ~n ~w =
  let ncols = n + nrows in
  let u = Array.make (nrows + 1) 0.0 in
  let v = Array.make (ncols + 1) 0.0 in
  let p = Array.make (ncols + 1) 0 in
  let way = Array.make (ncols + 1) 0 in
  (* Dijkstra scratch, reused across the row phases (reset by fill). *)
  let minv = Array.make (ncols + 1) infinity in
  let used = Array.make (ncols + 1) false in
  for i = 1 to nrows do
    p.(0) <- i;
    let j0 = ref 0 in
    Array.fill minv 0 (ncols + 1) infinity;
    Array.fill used 0 (ncols + 1) false;
    let augmenting = ref true in
    while !augmenting do
      used.(!j0) <- true;
      let i0 = p.(!j0) in
      let delta = ref infinity and j1 = ref 0 in
      let r = i0 - 1 in
      let ui0 = u.(i0) in
      (* Candidate columns 1..n, then null columns n+1..ncols — same
         ascending-j scan as [lap] with the [j <= n] test lifted out. *)
      for j = 1 to n do
        if not used.(j) then begin
          let x = w.(j - 1).(r) in
          let cost = if x > 0.0 then -.x else infinity in
          let cur = cost -. ui0 -. v.(j) in
          if cur < minv.(j) then begin
            minv.(j) <- cur;
            way.(j) <- !j0
          end;
          if minv.(j) < !delta then begin
            delta := minv.(j);
            j1 := j
          end
        end
      done;
      for j = n + 1 to ncols do
        if not used.(j) then begin
          let cur = -.ui0 -. v.(j) in
          if cur < minv.(j) then begin
            minv.(j) <- cur;
            way.(j) <- !j0
          end;
          if minv.(j) < !delta then begin
            delta := minv.(j);
            j1 := j
          end
        end
      done;
      assert (!delta < infinity);
      for j = 0 to ncols do
        if used.(j) then begin
          u.(p.(j)) <- u.(p.(j)) +. !delta;
          v.(j) <- v.(j) -. !delta
        end
        else minv.(j) <- minv.(j) -. !delta
      done;
      j0 := !j1;
      if p.(!j0) = 0 then augmenting := false
    done;
    let j = ref !j0 in
    while !j <> 0 do
      let j' = way.(!j) in
      p.(!j) <- p.(j');
      j := j'
    done
  done;
  p

let reference_solve ~w =
  let n = Array.length w in
  let k = if n = 0 then 0 else Array.length w.(0) in
  let assignment = Assignment.empty ~k in
  if n > 0 then begin
    let p = lap_reduced ~nrows:k ~n ~w in
    for j = 1 to n do
      if p.(j) <> 0 then assignment.(p.(j) - 1) <- Some (j - 1)
    done
  end;
  assignment

let gen_lap_instance =
  let open QCheck2.Gen in
  let* n = int_range 0 48 in
  let* k = int_range 1 16 in
  let* cell =
    oneofl
      [
        map float_of_int (oneofl [ -2; -1; 0; 0; 1; 1; 2; 3 ]);
        float_range (-10.0) 30.0;
      ]
  in
  array_size (return n) (array_size (return k) cell)

let prop_lap_equals_reference =
  qtest ~count:600 "solve = reference LAP (assignment, ties, nulls)"
    gen_lap_instance (fun w -> Hungarian.solve ~w = reference_solve ~w)

(* Auction-shaped weights, the expressions the engines score with: a
   slot's CTR is a band value times the advertiser's quality (both from
   small sets, so equal rows and exact ties are common), a bid is an
   integer (0 = below the reserve), and slot 1 carries a premium. *)
let gen_auction_weights ~max_n =
  let open QCheck2.Gen in
  let* n = int_range 0 max_n in
  let* k = int_range 1 16 in
  let* bands =
    array_size (return k) (oneofl [ 0.05; 0.1; 0.125; 0.2; 0.25; 0.3 ])
  in
  let row =
    let* quality = oneofl [ 0.5; 0.75; 1.0 ] in
    let* bid = oneof [ return 0; int_range 1 12; int_range 1 500 ] in
    let* prem = oneof [ return 0; return 0; int_range 1 20 ] in
    let b = float_of_int bid in
    return
      (Array.init k (fun j ->
           let ctr = quality *. bands.(j) in
           if bid = 0 then 0.0
           else if j = 0 then ctr *. (b +. float_of_int prem)
           else ctr *. b))
  in
  array_size (return n) row

(* A counterexample prints each weight exactly, one row per line. *)
let print_w w =
  String.concat "\n"
    (Array.to_list
       (Array.map
          (fun r ->
            String.concat " " (Array.to_list (Array.map (Printf.sprintf "%h") r)))
          w))

let prop_lap_auction_weights =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~print:print_w ~count:400
       ~name:"solve = reference LAP (auction weights, n <= 48)"
       (gen_auction_weights ~max_n:48) (fun w ->
         Hungarian.solve ~w = reference_solve ~w))

(* Up to the reduced capacity k·(k+1) = 240 of a 15-slot auction. *)
let prop_lap_reduced_capacity =
  QCheck_alcotest.to_alcotest ~speed_level:`Slow
    (QCheck2.Test.make ~print:print_w ~count:120
       ~name:"solve = reference LAP (n <= 240, both weight shapes)"
       QCheck2.Gen.(
         oneof
           [
             gen_auction_weights ~max_n:240;
             (let* n = int_range 0 240 in
              let* k = int_range 1 16 in
              array_size (return n)
                (array_size (return k)
                   (map float_of_int (oneofl [ -1; 0; 1; 1; 2; 3 ]))));
           ])
       (fun w -> Hungarian.solve ~w = reference_solve ~w))

(* [solve] keeps its buffers in a per-domain workspace that grows on
   demand and is reused by every later solve on the domain.  A run of
   shapes that grows and shrinks in both n and k, solved back to back on
   one domain, would show any state a solve leaves behind for the next. *)
let prop_lap_workspace_reuse =
  qtest ~count:60 "solve = reference LAP over a run of shapes on one domain"
    QCheck2.Gen.(
      list_size (int_range 2 12)
        (oneof [ gen_auction_weights ~max_n:240; gen_lap_instance ]))
    (fun ws ->
      Domain.join
        (Domain.spawn (fun () ->
             List.for_all (fun w -> Hungarian.solve ~w = reference_solve ~w) ws)))

(* ------------------------------------------------------------------ *)
(* Reduction (RH) *)

let prop_rh_equals_hungarian =
  qtest "reduced graph preserves the optimum" gen_weights_large (fun w ->
      let rh = Reduction.solve ~w () in
      Assignment.validate ~n:(Array.length w) rh;
      abs_float (Assignment.matching_weight ~w rh -. Hungarian.optimal_weight ~w) < 1e-6)

let prop_rh_with_ties =
  (* Integer weights force many ties — the reduction must still be optimal. *)
  qtest "reduction optimal under ties"
    QCheck2.Gen.(
      let* n = int_range 1 20 in
      let* k = int_range 1 5 in
      array_size (return n) (array_size (return k) (map float_of_int (int_range 0 4))))
    (fun w ->
      let rh = Reduction.solve ~w () in
      abs_float (Assignment.matching_weight ~w rh -. Hungarian.optimal_weight ~w) < 1e-6)

let test_fig9_example () =
  (* The paper's Fig. 9 revenue matrix: Nike, Adidas, Reebok, Sketchers ×
     2 slots.  Top-2 for slot 1 = {Nike, Adidas}; for slot 2 = {Adidas,
     Reebok}; Sketchers drops out (Fig. 11). *)
  let w = [| [| 9.; 5. |]; [| 8.; 7. |]; [| 7.; 6. |]; [| 7.; 4. |] |] in
  let top = Reduction.top_per_slot ~w ~count:2 in
  Alcotest.(check (list int)) "slot1 top2" [ 0; 1 ] (List.map fst top.(0));
  Alcotest.(check (list int)) "slot2 top2" [ 1; 2 ] (List.map fst top.(1));
  let r = Reduction.reduce ~w () in
  Alcotest.(check (array int)) "reduced advertisers" [| 0; 1; 2 |] r.advertisers;
  let a = Reduction.solve ~w () in
  (* Optimal: Nike slot1 (9) + Adidas slot2 (7) = 16. *)
  Alcotest.(check bool) "optimal allocation" true (a = [| Some 0; Some 1 |]);
  Alcotest.(check (float 1e-9)) "value 16" 16.0 (Assignment.matching_weight ~w a)

let test_reduction_tie_canonical () =
  (* Equal weights: earlier advertiser wins the list slot. *)
  let w = [| [| 5.0 |]; [| 5.0 |]; [| 5.0 |] |] in
  let top = Reduction.top_per_slot ~w ~count:2 in
  Alcotest.(check (list int)) "first two ids" [ 0; 1 ] (List.map fst top.(0))

let prop_top_lists_canonical_under_ties =
  (* Integer weights, so most scores tie: each slot's list is the first
     [count] of a sort by (weight descending, index ascending), entries
     in that order. *)
  qtest "top lists = (weight desc, index asc) sort under ties"
    QCheck2.Gen.(
      let* n = int_range 1 30 in
      let* k = int_range 1 5 in
      let* count = int_range 0 8 in
      let* w =
        array_size (return n)
          (array_size (return k) (map float_of_int (int_range 0 3)))
      in
      return (w, count))
    (fun (w, count) ->
      let k = Array.length w.(0) in
      let tops = Reduction.top_per_slot ~w ~count in
      List.for_all
        (fun j ->
          let sorted =
            List.sort
              (fun (ia, wa) (ib, wb) ->
                let c = Float.compare wb wa in
                if c <> 0 then c else Int.compare ia ib)
              (List.init (Array.length w) (fun i -> (i, w.(i).(j))))
          in
          tops.(j) = List.filteri (fun i _ -> i < count) sorted)
        (List.init k Fun.id))

let prop_adding_advertiser_never_hurts =
  qtest ~count:200 "optimum is monotone in the advertiser set"
    QCheck2.Gen.(
      pair gen_weights (array_size (return 3) (float_range 0.0 30.0)))
    (fun (w, extra_seed) ->
      let k = Array.length w.(0) in
      (* Build the new advertiser's row by cycling the generated values. *)
      let extra =
        Array.init k (fun j -> extra_seed.(j mod Array.length extra_seed))
      in
      let before = Hungarian.optimal_weight ~w in
      let after = Hungarian.optimal_weight ~w:(Array.append w [| extra |]) in
      after >= before -. 1e-9)

let prop_rh_with_kplus1_lists_optimal =
  (* The engines reduce with k+1 candidates per slot (for pricing); the
     matching over that wider reduction must still be optimal. *)
  qtest ~count:200 "reduction with k+1 lists stays optimal" gen_weights_large
    (fun w ->
      let k = Array.length w.(0) in
      let top = Reduction.top_per_slot ~w ~count:(k + 1) in
      let a = Reduction.solve ~top ~w () in
      abs_float (Assignment.matching_weight ~w a -. Hungarian.optimal_weight ~w)
      < 1e-6)

let prop_hungarian_extreme_scales =
  (* Weights spanning twelve orders of magnitude: the potential updates
     must not lose the optimum (relative tolerance). *)
  qtest ~count:200 "optimal under extreme weight scales"
    QCheck2.Gen.(
      let* n = int_range 1 6 in
      let* k = int_range 1 3 in
      array_size (return n)
        (array_size (return k)
           (map2 (fun mantissa expo -> mantissa *. (10.0 ** float_of_int expo))
              (float_range 0.1 1.0) (int_range (-6) 6))))
    (fun w ->
      let base = Array.make (Array.length w) 0.0 in
      let _, best = Brute.best ~w ~base () in
      let got =
        Essa_matching.Assignment.total_value ~w ~base (Hungarian.solve ~w)
      in
      abs_float (got -. best) <= 1e-9 *. Float.max 1.0 (abs_float best))

(* ------------------------------------------------------------------ *)
(* Brute *)

let test_count_allocations () =
  (* n=2,k=2: empty, 2×(a in slot1), 2×(a in slot2), 2 orderings = 1+2+2+2 = 7 *)
  Alcotest.(check int) "2x2" 7 (Brute.count_allocations ~n:2 ~k:2);
  Alcotest.(check int) "n=1,k=1" 2 (Brute.count_allocations ~n:1 ~k:1);
  Alcotest.(check int) "n=0" 1 (Brute.count_allocations ~n:0 ~k:3)

let test_brute_respects_allowed () =
  let w = [| [| 10.0 |]; [| 5.0 |] |] in
  let allowed ~adv ~slot = ignore slot; adv = 1 in
  let a, v = Brute.best ~allowed ~w ~base:[| 0.0; 0.0 |] () in
  Alcotest.(check bool) "constrained" true (a = [| Some 1 |]);
  Alcotest.(check (float 1e-9)) "value" 5.0 v

let prop_brute_uses_baselines =
  qtest ~count:100 "brute prefers baseline when edges are worse"
    QCheck2.Gen.(array_size (return 3) (float_range 0.0 5.0))
    (fun base ->
      (* Edge weights strictly below every baseline: best = leave all out. *)
      let w = Array.map (fun b -> [| b -. 1.0; b -. 2.0 |]) base in
      let a, v = Brute.best ~w ~base () in
      Array.for_all (fun c -> c = None) a
      && abs_float (v -. Array.fold_left ( +. ) 0.0 base) < 1e-9)

(* ------------------------------------------------------------------ *)
(* Tree top-k *)

let prop_tree_merge_equals_heap =
  qtest ~count:150 "tree combining = heap scan" gen_weights_large (fun w ->
      let k = Array.length w.(0) in
      let tops, depth = Tree_topk.tree_merge ~w ~count:k in
      let expected = Reduction.top_per_slot ~w ~count:k in
      tops = expected && depth <= 1 + int_of_float (ceil (log (float_of_int (max 2 (Array.length w))) /. log 2.0)))

let test_tree_merge_op () =
  let xs = [ (0, 9.0); (1, 5.0) ] and ys = [ (2, 7.0); (3, 5.0) ] in
  Alcotest.(check (list (pair int (float 0.0)))) "merge"
    [ (0, 9.0); (2, 7.0); (1, 5.0) ]
    (Tree_topk.merge ~count:3 xs ys);
  (* Ties favour the left list (lower leaf indices). *)
  Alcotest.(check (list (pair int (float 0.0)))) "tie"
    [ (1, 5.0) ]
    (Tree_topk.merge ~count:1 [ (1, 5.0) ] [ (0, 5.0) ])

(* Descending top lists with small integer weights, so ties are common;
   ids are distinct across the two lists, as under a tree node. *)
let gen_top_list ~first_id =
  QCheck2.Gen.(
    list_size (int_range 0 8) (int_range 0 6) >|= fun ws ->
    List.sort (fun a b -> compare b a) ws
    |> List.mapi (fun i w -> (first_id + i, float_of_int w)))

let prop_merge_is_stable_top =
  (* The combine step is a stable merge truncated to [count]: the first
     [count] of the union sorted by descending weight, left list first
     on ties. *)
  qtest "merge = stable top-count of the union"
    QCheck2.Gen.(
      triple (int_range 0 10) (gen_top_list ~first_id:0) (gen_top_list ~first_id:100))
    (fun (count, xs, ys) ->
      let union =
        List.stable_sort (fun (_, a) (_, b) -> Float.compare b a) (xs @ ys)
      in
      Tree_topk.merge ~count xs ys = List.filteri (fun i _ -> i < count) union)

let prop_merge_associative =
  (* Associativity is what lets the tree combine leaves in any grouping
     (Section III-E): the left-favouring tie rule keeps it exact. *)
  qtest "merge is associative"
    QCheck2.Gen.(
      quad (int_range 0 10) (gen_top_list ~first_id:0) (gen_top_list ~first_id:100)
        (gen_top_list ~first_id:200))
    (fun (count, a, b, c) ->
      let m = Tree_topk.merge ~count in
      m (m a b) c = m a (m b c))

let test_tree_merge_depth () =
  (* Halving [lo, hi) gives a tree of height exactly ceil (log2 n). *)
  let ceil_log2 n =
    let rec go d p = if p >= n then d else go (d + 1) (2 * p) in
    go 0 1
  in
  for n = 1 to 200 do
    let w = Array.init n (fun i -> [| float_of_int i; 1.0 |]) in
    let _, depth = Tree_topk.tree_merge ~w ~count:2 in
    Alcotest.(check int) (Printf.sprintf "depth n=%d" n) (ceil_log2 n) depth
  done;
  let tops, depth = Tree_topk.tree_merge ~w:[||] ~count:3 in
  Alcotest.(check int) "no advertisers: no slots" 0 (Array.length tops);
  Alcotest.(check int) "no advertisers: depth 0" 0 depth

let test_tree_merge_count_edges () =
  let w = [| [| 3.0; 1.0 |]; [| 5.0; 1.0 |]; [| 4.0; 2.0 |] |] in
  let tops, _ = Tree_topk.tree_merge ~w ~count:0 in
  Alcotest.(check bool) "count 0: empty lists" true (tops = [| []; [] |]);
  (* A count past n keeps every advertiser, best first, ties to the
     smaller index. *)
  let tops, _ = Tree_topk.tree_merge ~w ~count:10 in
  Alcotest.(check (list (pair int (float 0.0)))) "slot 1"
    [ (1, 5.0); (2, 4.0); (0, 3.0) ] tops.(0);
  Alcotest.(check (list (pair int (float 0.0)))) "slot 2"
    [ (2, 2.0); (0, 1.0); (1, 1.0) ] tops.(1)

let prop_tree_tops_drive_rh =
  (* The tree's lists are a drop-in [?top] for the reduced-graph solve. *)
  qtest ~count:100 "tree lists give RH the optimum" gen_weights_large (fun w ->
      let k = Array.length w.(0) in
      let top, _ = Tree_topk.tree_merge ~w ~count:k in
      let a = Reduction.solve ~top ~w () in
      Assignment.validate ~n:(Array.length w) a;
      abs_float (Assignment.matching_weight ~w a -. Hungarian.optimal_weight ~w) < 1e-6)

(* ------------------------------------------------------------------ *)
(* LP cross-check lives in test_lp; here: the three matching paths agree
   on one bigger deterministic instance. *)

let test_three_way_agreement_big () =
  let rng = Essa_util.Rng.create 123 in
  let w =
    Array.init 500 (fun _ -> Array.init 15 (fun _ -> Essa_util.Rng.float rng 50.0))
  in
  let v1 = Hungarian.optimal_weight ~w in
  let v2 = Assignment.matching_weight ~w (Hungarian.solve_classic ~w) in
  let v3 = Assignment.matching_weight ~w (Reduction.solve ~w ()) in
  Alcotest.(check (float 1e-6)) "classic" v1 v2;
  Alcotest.(check (float 1e-6)) "rh" v1 v3

let () =
  Alcotest.run "essa_matching"
    [
      ( "assignment",
        [
          Alcotest.test_case "utilities" `Quick test_assignment_utilities;
          Alcotest.test_case "validate rejects" `Quick test_assignment_validate_rejects;
        ] );
      ( "hungarian",
        [
          prop_hungarian_optimal;
          prop_classic_equals_fast;
          prop_lap_equals_reference;
          prop_lap_auction_weights;
          prop_lap_reduced_capacity;
          prop_lap_workspace_reuse;
          Alcotest.test_case "negative weights" `Quick test_hungarian_negative_weights_unused;
          Alcotest.test_case "zero weights unassigned" `Quick
            test_hungarian_zero_weights_leave_slots_empty;
          Alcotest.test_case "more slots than advertisers" `Quick
            test_hungarian_more_slots_than_advertisers;
          Alcotest.test_case "empty" `Quick test_hungarian_empty;
          Alcotest.test_case "ragged rejected" `Quick test_hungarian_ragged_rejected;
        ] );
      ( "reduction",
        [
          prop_rh_equals_hungarian;
          prop_rh_with_ties;
          prop_rh_with_kplus1_lists_optimal;
          prop_top_lists_canonical_under_ties;
          prop_adding_advertiser_never_hurts;
          prop_hungarian_extreme_scales;
          Alcotest.test_case "Fig. 9-11 example" `Quick test_fig9_example;
          Alcotest.test_case "tie canonical" `Quick test_reduction_tie_canonical;
        ] );
      ( "brute",
        [
          Alcotest.test_case "count allocations" `Quick test_count_allocations;
          Alcotest.test_case "allowed predicate" `Quick test_brute_respects_allowed;
          prop_brute_uses_baselines;
        ] );
      ( "tree_topk",
        [
          prop_tree_merge_equals_heap;
          Alcotest.test_case "merge op" `Quick test_tree_merge_op;
          prop_merge_is_stable_top;
          prop_merge_associative;
          Alcotest.test_case "depth = ceil log2 n" `Quick test_tree_merge_depth;
          Alcotest.test_case "count 0 and count > n" `Quick test_tree_merge_count_edges;
          prop_tree_tops_drive_rh;
        ] );
      ( "integration",
        [ Alcotest.test_case "3-way agreement n=500" `Quick test_three_way_agreement_big ] );
    ]
