(* Tests for bidding strategies (essa_strategy): the native ROI state, the
   SQL program form, and the three-way fleet equivalence at the heart of
   RHTALU. *)

open Essa_strategy

let qtest ?(count = 60) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* ------------------------------------------------------------------ *)
(* Roi_state *)

let mk_state ?initial_bids ?(values = [| 10; 20 |]) ?(target = 5.0) () =
  Roi_state.create ~values ?initial_bids ~target_rate:target ()

let test_roi_state_defaults () =
  let st = mk_state () in
  Alcotest.(check int) "maxbid = value" 10 (Roi_state.maxbid st ~keyword:0);
  Alcotest.(check int) "initial bid = half" 5 (Roi_state.bid st ~keyword:0);
  Alcotest.(check int) "initial spend" 0 (Roi_state.amt_spent st);
  Alcotest.(check (float 0.0)) "roi 0/0" 0.0 (Roi_state.roi st ~keyword:0)

let test_roi_state_validation () =
  let bad f = match f () with exception Invalid_argument _ -> true | _ -> false in
  Alcotest.(check bool) "no keywords" true
    (bad (fun () -> Roi_state.create ~values:[||] ~target_rate:1.0 ()));
  Alcotest.(check bool) "bad target" true
    (bad (fun () -> Roi_state.create ~values:[| 1 |] ~target_rate:0.0 ()));
  Alcotest.(check bool) "bid beyond maxbid" true
    (bad (fun () ->
         Roi_state.create ~values:[| 5 |] ~initial_bids:[| 6 |] ~target_rate:1.0 ()))

let test_roi_underspending_increments () =
  let st = mk_state () in
  Roi_state.on_auction st ~time:1 ~keyword:0;
  Alcotest.(check int) "bid + 1" 6 (Roi_state.bid st ~keyword:0);
  Alcotest.(check int) "other keyword untouched" 10 (Roi_state.bid st ~keyword:1)

let test_roi_increment_capped_at_maxbid () =
  let st = mk_state ~initial_bids:[| 10; 10 |] () in
  Roi_state.on_auction st ~time:1 ~keyword:0;
  Alcotest.(check int) "stays at maxbid" 10 (Roi_state.bid st ~keyword:0)

let test_roi_overspending_decrements () =
  let st = mk_state () in
  Roi_state.record_win st ~keyword:0 ~price:50 ~clicked:true;
  (* 50 spent at time 1 > target 5 -> overspending. *)
  Roi_state.on_auction st ~time:1 ~keyword:0;
  Alcotest.(check int) "bid - 1" 4 (Roi_state.bid st ~keyword:0)

let test_roi_decrement_floored_at_zero () =
  let st = mk_state ~initial_bids:[| 0; 0 |] () in
  Roi_state.record_win st ~keyword:0 ~price:50 ~clicked:true;
  Roi_state.on_auction st ~time:1 ~keyword:0;
  Alcotest.(check int) "stays at 0" 0 (Roi_state.bid st ~keyword:0)

let test_roi_at_target_stays () =
  let st = mk_state ~target:10.0 () in
  Roi_state.record_win st ~keyword:0 ~price:10 ~clicked:true;
  (* 10 = 10 × 1: exactly at target. *)
  Roi_state.on_auction st ~time:1 ~keyword:0;
  Alcotest.(check int) "unchanged" 5 (Roi_state.bid st ~keyword:0)

let test_roi_unclicked_win_costs_nothing () =
  let st = mk_state () in
  Roi_state.record_win st ~keyword:0 ~price:50 ~clicked:false;
  Alcotest.(check int) "pay-per-click" 0 (Roi_state.amt_spent st);
  Alcotest.(check int) "no gain" 0 (Roi_state.gained st ~keyword:0)

let test_roi_roi_accounting () =
  let st = mk_state () in
  Roi_state.record_win st ~keyword:0 ~price:4 ~clicked:true;
  Roi_state.record_win st ~keyword:0 ~price:6 ~clicked:true;
  (* gained 2×10 = 20; spent 10 -> roi 2. *)
  Alcotest.(check (float 1e-9)) "roi" 2.0 (Roi_state.roi st ~keyword:0);
  Alcotest.(check int) "amt spent" 10 (Roi_state.amt_spent st)

let test_roi_classify_matrix () =
  let cases =
    [
      (* amt, target, time, bid, maxbid, expected *)
      (0, 5.0, 1, 3, 10, Roi_state.Inc);
      (0, 5.0, 1, 10, 10, Roi_state.Stay);   (* at maxbid *)
      (100, 5.0, 1, 3, 10, Roi_state.Dec);
      (100, 5.0, 1, 0, 10, Roi_state.Stay);  (* at zero *)
      (10, 5.0, 2, 3, 10, Roi_state.Stay);   (* exactly at target *)
      (10, 5.0, 3, 3, 10, Roi_state.Inc);    (* rate decayed below target *)
    ]
  in
  List.iteri
    (fun i (amt_spent, target_rate, time, bid, maxbid, expected) ->
      let got =
        Roi_state.classify ~budget:None ~amt_spent ~target_rate ~time ~bid ~maxbid
      in
      Alcotest.(check bool) (Printf.sprintf "case %d" i) true (got = expected))
    cases

let test_roi_budget_exhaustion () =
  let st =
    Roi_state.create ~values:[| 10; 20 |] ~budget:15 ~target_rate:5.0 ()
  in
  Alcotest.(check bool) "fresh" false (Roi_state.exhausted st);
  Roi_state.record_win st ~keyword:0 ~price:10 ~clicked:true;
  Alcotest.(check bool) "under budget" false (Roi_state.exhausted st);
  Alcotest.(check bool) "bids alive" true (Roi_state.bid st ~keyword:0 > 0);
  Roi_state.record_win st ~keyword:1 ~price:10 ~clicked:true;
  Alcotest.(check bool) "exhausted" true (Roi_state.exhausted st);
  Alcotest.(check int) "bid 0 zeroed" 0 (Roi_state.bid st ~keyword:0);
  Alcotest.(check int) "bid 1 zeroed" 0 (Roi_state.bid st ~keyword:1);
  (* Stays retired even after the spending rate decays below target. *)
  for time = 100 to 110 do
    Roi_state.on_auction st ~time ~keyword:0
  done;
  Alcotest.(check int) "still zero" 0 (Roi_state.bid st ~keyword:0)

let test_roi_budget_validation () =
  Alcotest.(check bool) "negative budget" true
    (match Roi_state.create ~values:[| 1 |] ~budget:(-1) ~target_rate:1.0 () with
    | exception Invalid_argument _ -> true
    | _ -> false)

let prop_fleet_equivalence_with_budgets =
  qtest ~count:25 "fleet equivalence holds with budgets"
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let rng = Essa_util.Rng.create seed in
      let n = 2 + Essa_util.Rng.int rng 15 in
      let nk = 1 + Essa_util.Rng.int rng 3 in
      let base =
        Array.init n (fun _ ->
            let values = Array.init nk (fun _ -> 1 + Essa_util.Rng.int rng 50) in
            let maxv = Array.fold_left max 1 values in
            Roi_state.create ~values
              ~budget:(5 + Essa_util.Rng.int rng 60)
              ~target_rate:(Essa_util.Rng.float_in rng 1.0 (float_of_int maxv))
              ())
      in
      let fleets =
        List.map
          (fun make -> make (Array.map Roi_state.copy base))
          [ Roi_fleet.naive; Roi_fleet.tabular; Roi_fleet.logical ]
      in
      let ok = ref true in
      for time = 1 to 200 do
        let kw = Essa_util.Rng.int rng nk in
        List.iter (fun f -> Roi_fleet.on_auction f ~time ~keyword:kw) fleets;
        let winners =
          List.sort_uniq compare
            (List.init (Essa_util.Rng.int rng 3) (fun _ -> Essa_util.Rng.int rng n))
        in
        List.iter
          (fun adv ->
            let clicked = Essa_util.Rng.bool rng in
            let price = Essa_util.Rng.int rng 25 in
            List.iter
              (fun f -> Roi_fleet.record_win f ~time ~adv ~keyword:kw ~price ~clicked)
              fleets)
          winners;
        (match List.map (fun f -> Roi_fleet.snapshot_bids f ~keyword:kw) fleets with
        | [ a; b; c ] -> if not (a = b && b = c) then ok := false
        | _ -> ok := false)
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Adjustment_list *)

let test_adjustment_list () =
  let l = Adjustment_list.create () in
  Adjustment_list.insert l ~id:1 ~effective:5;
  Adjustment_list.insert l ~id:2 ~effective:9;
  Adjustment_list.bulk_adjust l (-2);
  Alcotest.(check (option int)) "adjusted" (Some 3) (Adjustment_list.effective_of l 1);
  Adjustment_list.insert l ~id:3 ~effective:4;
  Alcotest.(check (option int)) "late joiner" (Some 4) (Adjustment_list.effective_of l 3);
  Adjustment_list.bulk_adjust l 1;
  Alcotest.(check (list (pair int int))) "order preserved"
    [ (2, 8); (3, 5); (1, 4) ]
    (List.of_seq (Adjustment_list.to_seq_desc l));
  Adjustment_list.remove l ~id:2;
  Alcotest.(check int) "size" 2 (Adjustment_list.size l);
  Alcotest.(check bool) "mem" false (Adjustment_list.mem l 2)

let test_adjustment_list_seq_snapshot () =
  let l = Adjustment_list.create () in
  Adjustment_list.insert l ~id:1 ~effective:5;
  let s = Adjustment_list.to_seq_desc l in
  Adjustment_list.bulk_adjust l 100;
  (* The previously created sequence must reflect the state at call time. *)
  Alcotest.(check (list (pair int int))) "snapshot" [ (1, 5) ] (List.of_seq s)

(* The reference: the tree-backed adjustment list the sorted-array one
   replaced, kept verbatim (over a verbatim copy of the parts of the
   ranked list it used, structural version and all) as the oracle for
   the property below. *)
module Ref_ranked_list = struct
  module Key = struct
    type t = float * int  (* score, id *)

    (* Descending by score, ascending by id — a strict total order, so the
       map never conflates distinct objects with equal scores. *)
    let compare (sa, ia) (sb, ib) =
      let c = Float.compare sb sa in
      if c <> 0 then c else Int.compare ia ib
  end

  module M = Map.Make (Key)

  type t = {
    mutable tree : unit M.t;
    index : (int, float) Hashtbl.t;
    (* Bumped on every structural change (insert/remove); lets callers cache
       a flattened traversal and revalidate in O(1). *)
    mutable version : int;
  }

  let create () = { tree = M.empty; index = Hashtbl.create 64; version = 0 }

  let size t = Hashtbl.length t.index
  let version t = t.version

  let remove t ~id =
    match Hashtbl.find_opt t.index id with
    | None -> ()
    | Some score ->
        t.tree <- M.remove (score, id) t.tree;
        Hashtbl.remove t.index id;
        t.version <- t.version + 1

  let insert t ~id ~value =
    remove t ~id;
    t.tree <- M.add (value, id) () t.tree;
    Hashtbl.replace t.index id value;
    t.version <- t.version + 1

  let value_of t id = Hashtbl.find_opt t.index id
  let mem t id = Hashtbl.mem t.index id

  let to_seq_desc t = Seq.map (fun ((score, id), ()) -> (id, score)) (M.to_seq t.tree)

  (* Same traversal order as [to_seq_desc] (Map iteration follows the key
     order: score descending, id ascending) without the Seq nodes — the
     flattening primitive behind cached sorted-array views. *)
  let iter_desc t f = M.iter (fun (score, id) () -> f id score) t.tree
end

module Ref_adjustment_list = struct
  type t = {
    ranked : Ref_ranked_list.t;  (* scores are stored (pre-adjustment) bids *)
    mutable adjustment : int;
    (* Cached flattening of [ranked] in descending order, revalidated
       against the ranked list's structural version.  [bulk_adjust] does not
       invalidate it: stored bids and their order are untouched — the shared
       offset is applied per read.  This is the TA-resume state: consecutive
       auctions on a keyword reuse the flat arrays instead of re-walking the
       tree. *)
    mutable cache_ids : int array;
    mutable cache_stored : int array;
    mutable cache_len : int;
    mutable cache_version : int;
  }

  let create () =
    {
      ranked = Ref_ranked_list.create ();
      adjustment = 0;
      cache_ids = [||];
      cache_stored = [||];
      cache_len = 0;
      cache_version = -1;
    }

  let size t = Ref_ranked_list.size t.ranked
  let adjustment t = t.adjustment
  let bulk_adjust t delta = t.adjustment <- t.adjustment + delta

  let insert t ~id ~effective =
    Ref_ranked_list.insert t.ranked ~id ~value:(float_of_int (effective - t.adjustment))

  let remove t ~id = Ref_ranked_list.remove t.ranked ~id
  let mem t id = Ref_ranked_list.mem t.ranked id

  let stored_of t id =
    Option.map int_of_float (Ref_ranked_list.value_of t.ranked id)

  let effective_of t id = Option.map (fun s -> s + t.adjustment) (stored_of t id)

  let to_seq_desc t =
    (* Capture the adjustment now: the sequence is consumed lazily and must
       reflect the list as of this call. *)
    let adjustment = t.adjustment in
    Seq.map
      (fun (id, stored) -> (id, int_of_float stored + adjustment))
      (Ref_ranked_list.to_seq_desc t.ranked)

  let sorted_arrays t =
    let v = Ref_ranked_list.version t.ranked in
    if t.cache_version <> v then begin
      let n = Ref_ranked_list.size t.ranked in
      if Array.length t.cache_ids < n then begin
        let cap = max 16 (2 * n) in
        t.cache_ids <- Array.make cap 0;
        t.cache_stored <- Array.make cap 0
      end;
      let i = ref 0 in
      Ref_ranked_list.iter_desc t.ranked (fun id stored ->
          t.cache_ids.(!i) <- id;
          t.cache_stored.(!i) <- int_of_float stored;
          incr i);
      t.cache_len <- !i;
      t.cache_version <- v
    end;
    (t.cache_ids, t.cache_stored, t.cache_len)
end

type list_op =
  | Insert of int * int
  | Remove of int
  | Bulk of int
  | Insert_many of (int * int) list
  | Remove_many of int list

(* Ids come mostly from a small pool, so inserts repeat ids and removes
   hit present ones, with an occasional id near 3000 so both the sorted
   arrays and the by-id mirror grow past their first capacity.  Narrow
   bid ranges force ties, which break by id. *)
let gen_list_ops =
  QCheck2.Gen.(
    let id = frequency [ (6, int_range 0 24); (1, int_range 0 3000) ] in
    list_size (int_range 0 150)
      (frequency
         [
           (5, map2 (fun id e -> Insert (id, e)) id (int_range (-4) 12));
           (2, map (fun id -> Remove id) id);
           (2, map (fun d -> Bulk d) (int_range (-3) 3));
           ( 2,
             map
               (fun l -> Insert_many l)
               (list_size (int_range 0 12) (pair id (int_range (-4) 12))) );
           (1, map (fun l -> Remove_many l) (list_size (int_range 0 12) id));
         ]))

let prop_adjustment_list_matches_reference =
  qtest ~count:300 "sorted arrays = tree-backed reference" gen_list_ops
    (fun ops ->
      let l = Adjustment_list.create () and r = Ref_adjustment_list.create () in
      let touched = ref [ -1; 3001; 5000 ] in
      List.iteri
        (fun step op ->
          (match op with
          | Insert (id, effective) ->
              touched := id :: !touched;
              Adjustment_list.insert l ~id ~effective;
              Ref_adjustment_list.insert r ~id ~effective
          | Remove id ->
              Adjustment_list.remove l ~id;
              Ref_adjustment_list.remove r ~id
          | Bulk d ->
              Adjustment_list.bulk_adjust l d;
              Ref_adjustment_list.bulk_adjust r d
          | Insert_many entries -> (
              let ids = List.map fst entries in
              touched := ids @ !touched;
              (* Valid batches hold distinct non-members; any other batch
                 must be rejected with the list untouched. *)
              let valid =
                List.length (List.sort_uniq compare ids) = List.length ids
                && not (List.exists (Ref_adjustment_list.mem r) ids)
              in
              match Adjustment_list.insert_many l entries with
              | () ->
                  if not valid then
                    QCheck2.Test.fail_reportf "step %%d: invalid batch accepted" step;
                  List.iter
                    (fun (id, effective) -> Ref_adjustment_list.insert r ~id ~effective)
                    entries
              | exception Invalid_argument _ ->
                  if valid then
                    QCheck2.Test.fail_reportf "step %%d: valid batch rejected" step)
          | Remove_many ids ->
              Adjustment_list.remove_many l ids;
              List.iter (fun id -> Ref_adjustment_list.remove r ~id) ids);
          let fail what = QCheck2.Test.fail_reportf "step %d: %s differ" step what in
          let prefix (ids, stored, len) =
            (Array.sub ids 0 len, Array.sub stored 0 len)
          in
          if prefix (Adjustment_list.sorted_arrays l)
             <> prefix (Ref_adjustment_list.sorted_arrays r)
          then fail "sorted arrays";
          if List.of_seq (Adjustment_list.to_seq_desc l)
             <> List.of_seq (Ref_adjustment_list.to_seq_desc r)
          then fail "to_seq_desc";
          if Adjustment_list.size l <> Ref_adjustment_list.size r then fail "size";
          if Adjustment_list.adjustment l <> Ref_adjustment_list.adjustment r then
            fail "adjustment";
          List.iter
            (fun id ->
              if Adjustment_list.mem l id <> Ref_adjustment_list.mem r id then
                fail (Printf.sprintf "mem %d" id);
              if Adjustment_list.stored_of l id <> Ref_adjustment_list.stored_of r id
              then fail (Printf.sprintf "stored_of %d" id);
              if Adjustment_list.effective_of l id
                 <> Ref_adjustment_list.effective_of r id
              then fail (Printf.sprintf "effective_of %d" id))
            !touched)
        ops;
      true)

let test_adjustment_list_rejects_negative_id () =
  let l = Adjustment_list.create () in
  Alcotest.check_raises "negative id"
    (Invalid_argument "Adjustment_list: negative id") (fun () ->
      Adjustment_list.insert l ~id:(-1) ~effective:3);
  Alcotest.(check int) "still empty" 0 (Adjustment_list.size l)

(* ------------------------------------------------------------------ *)
(* Sql_program: the paper's Fig. 4 -> Fig. 6 example *)

let fig4_keywords =
  [
    { Sql_program.text = "boot"; formula = "click & slot1"; value = 10; maxbid = 5; initial_bid = 4 };
    { Sql_program.text = "shoe"; formula = "click"; value = 10; maxbid = 6; initial_bid = 6 };
  ]

let test_fig5_program_produces_fig6 () =
  let p = Sql_program.create_fig5 ~keywords:fig4_keywords ~target_rate:2.0 in
  (* Arrange exact at-target spending so lines 1-20 leave bids unchanged,
     then Fig. 4 relevances: boot 0.8, shoe 0.2. *)
  Essa_relalg.Database.set_var (Sql_program.db p) "amtSpent" (Essa_relalg.Value.Int 2);
  Sql_program.run_auction p ~time:1
    ~relevance:(fun kw -> if kw = "boot" then 0.8 else 0.2);
  (* Fig. 6: (click & slot1, 4) and (click, 0). *)
  let bids_table = Essa_relalg.Database.table (Sql_program.db p) "Bids" in
  let rows =
    Essa_relalg.Table.fold bids_table ~init:[] ~f:(fun acc row ->
        ( Essa_relalg.Value.to_string_exn (Essa_relalg.Table.get_value bids_table row "formula"),
          Essa_relalg.Value.to_int (Essa_relalg.Table.get_value bids_table row "value") )
        :: acc)
    |> List.sort compare
  in
  Alcotest.(check (list (pair string int))) "Fig. 6"
    [ ("click", 0); ("click & slot1", 4) ]
    rows;
  (* The parsed Bids table keeps only the funded formula. *)
  let bids = Sql_program.bids p in
  Alcotest.(check int) "one funded row" 1 (Essa_bidlang.Bids.size bids)

let test_fig5_roi_gate () =
  (* Underspending increments only the extreme-ROI relevant keyword. *)
  let p = Sql_program.create_fig5 ~keywords:fig4_keywords ~target_rate:2.0 in
  (* boot gets positive ROI; shoe none.  amtSpent 1 < target×time. *)
  Sql_program.record_win p ~keyword:"boot" ~price:1 ~clicked:true;
  Sql_program.run_auction p ~time:10 ~relevance:(fun _ -> 1.0);
  (* max ROI keyword is boot (10/1); both relevant; only boot bumps. *)
  Alcotest.(check int) "boot bumped" 5 (Sql_program.bid_on p ~keyword:"boot");
  Alcotest.(check int) "shoe unchanged" 6 (Sql_program.bid_on p ~keyword:"shoe")

let test_sql_program_validation () =
  let bad f = match f () with exception _ -> true | _ -> false in
  Alcotest.(check bool) "duplicate keyword" true
    (bad (fun () ->
         Sql_program.create_simple
           ~keywords:[ List.hd fig4_keywords; List.hd fig4_keywords ]
           ~target_rate:1.0));
  Alcotest.(check bool) "bad formula" true
    (bad (fun () ->
         Sql_program.create_simple
           ~keywords:[ { Sql_program.text = "x"; formula = "wat"; value = 1; maxbid = 1; initial_bid = 0 } ]
           ~target_rate:1.0))

let test_sql_listing_mentions_fig5_shape () =
  let p = Sql_program.create_fig5 ~keywords:fig4_keywords ~target_rate:2.0 in
  let s = Sql_program.listing p in
  List.iter
    (fun fragment ->
      let contains hay needle =
        let lh = String.length hay and ln = String.length needle in
        let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) ("mentions " ^ fragment) true (contains s fragment))
    [ "CREATE TRIGGER"; "UPDATE Keywords"; "UPDATE Bids"; "ELSEIF"; "MAX(roi)" ]

(* SQL simple program ≡ native Roi_state on random traces. *)
let prop_sql_simple_equals_native =
  qtest ~count:30 "simple SQL program = native state"
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let rng = Essa_util.Rng.create seed in
      let nk = 1 + Essa_util.Rng.int rng 3 in
      let values = Array.init nk (fun _ -> 1 + Essa_util.Rng.int rng 50) in
      let maxbids = Array.copy values in
      let initial = Array.map (fun v -> v / 2) values in
      let target = Essa_util.Rng.float_in rng 1.0 20.0 in
      let keywords =
        List.init nk (fun i ->
            { Sql_program.text = Printf.sprintf "kw%d" i; formula = "click";
              value = values.(i); maxbid = maxbids.(i); initial_bid = initial.(i) })
      in
      let sql = Sql_program.create_simple ~keywords ~target_rate:target in
      let native =
        Roi_state.create ~values ~maxbids ~initial_bids:initial ~target_rate:target ()
      in
      let ok = ref true in
      for time = 1 to 60 do
        let kw = Essa_util.Rng.int rng nk in
        let kw_name = Printf.sprintf "kw%d" kw in
        (* The SQL host sets amtSpent/time vars before triggering. *)
        Essa_relalg.Database.set_var (Sql_program.db sql) "amtSpent"
          (Essa_relalg.Value.Int (Roi_state.amt_spent native));
        Sql_program.run_auction sql ~time
          ~relevance:(fun name -> if name = kw_name then 1.0 else 0.0);
        Roi_state.on_auction native ~time ~keyword:kw;
        if Essa_util.Rng.bernoulli rng 0.3 then begin
          let price = Essa_util.Rng.int rng 20 in
          let clicked = Essa_util.Rng.bool rng in
          Sql_program.record_win sql ~keyword:kw_name ~price ~clicked;
          Roi_state.record_win native ~keyword:kw ~price ~clicked
        end;
        for kw' = 0 to nk - 1 do
          if Sql_program.bid_on sql ~keyword:(Printf.sprintf "kw%d" kw')
             <> Roi_state.bid native ~keyword:kw'
          then ok := false
        done;
        if Sql_program.amt_spent sql <> Roi_state.amt_spent native then ok := false
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Roi_fleet: three-way equivalence *)

(* Integer target rates make amt = target×time equalities common,
   hammering the Stay/trigger-boundary paths of the logical machinery. *)
let prop_fleet_equivalence_integer_boundaries =
  qtest ~count:20 "equivalence at exact spend-rate boundaries"
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let rng = Essa_util.Rng.create seed in
      let n = 2 + Essa_util.Rng.int rng 10 in
      let nk = 1 + Essa_util.Rng.int rng 2 in
      let base =
        Array.init n (fun _ ->
            let values = Array.init nk (fun _ -> 1 + Essa_util.Rng.int rng 20) in
            Roi_state.create ~values
              ~target_rate:(float_of_int (1 + Essa_util.Rng.int rng 5))
              ())
      in
      let fleets =
        List.map
          (fun make -> make (Array.map Roi_state.copy base))
          [ Roi_fleet.naive; Roi_fleet.logical ]
      in
      let ok = ref true in
      for time = 1 to 300 do
        let kw = Essa_util.Rng.int rng nk in
        List.iter (fun f -> Roi_fleet.on_auction f ~time ~keyword:kw) fleets;
        (* Integer prices that frequently make amt an exact multiple of
           the target rate. *)
        if Essa_util.Rng.bernoulli rng 0.4 then begin
          let adv = Essa_util.Rng.int rng n in
          let price = (1 + Essa_util.Rng.int rng 5) * (1 + Essa_util.Rng.int rng 4) in
          List.iter
            (fun f -> Roi_fleet.record_win f ~time ~adv ~keyword:kw ~price ~clicked:true)
            fleets
        end;
        match List.map (fun f -> Roi_fleet.snapshot_bids f ~keyword:kw) fleets with
        | [ a; b ] -> if a <> b then ok := false
        | _ -> ok := false
      done;
      !ok)

let random_states rng n nk =
  Array.init n (fun _ ->
      let values = Array.init nk (fun _ -> Essa_util.Rng.int rng 51) in
      if Array.for_all (fun v -> v = 0) values then
        values.(0) <- 1 + Essa_util.Rng.int rng 50;
      let maxv = Array.fold_left max 1 values in
      Roi_state.create ~values
        ~target_rate:(Essa_util.Rng.float_in rng 1.0 (float_of_int maxv))
        ())

let prop_fleet_three_way_equivalence =
  qtest ~count:25 "naive = tabular = logical over random traces"
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let rng = Essa_util.Rng.create seed in
      let n = 2 + Essa_util.Rng.int rng 25 in
      let nk = 1 + Essa_util.Rng.int rng 4 in
      let base = random_states rng n nk in
      let fleets =
        List.map
          (fun make -> make (Array.map Roi_state.copy base))
          [ Roi_fleet.naive; Roi_fleet.tabular; Roi_fleet.logical ]
      in
      let ok = ref true in
      for time = 1 to 250 do
        let kw = Essa_util.Rng.int rng nk in
        List.iter (fun f -> Roi_fleet.on_auction f ~time ~keyword:kw) fleets;
        let winners =
          List.sort_uniq compare
            (List.init (Essa_util.Rng.int rng 4) (fun _ -> Essa_util.Rng.int rng n))
        in
        List.iter
          (fun adv ->
            let clicked = Essa_util.Rng.bool rng in
            let price = Essa_util.Rng.int rng 30 in
            List.iter
              (fun f -> Roi_fleet.record_win f ~time ~adv ~keyword:kw ~price ~clicked)
              fleets)
          winners;
        (match List.map (fun f -> Roi_fleet.snapshot_bids f ~keyword:kw) fleets with
        | [ a; b; c ] -> if not (a = b && b = c) then ok := false
        | _ -> ok := false);
        (match List.map (fun f -> List.of_seq (Roi_fleet.bids_desc f ~keyword:kw)) fleets with
        | [ a; b; c ] -> if not (a = b && b = c) then ok := false
        | _ -> ok := false)
      done;
      !ok)

let prop_fleet_four_way_with_sql =
  (* The full interpretation stack: SQL programs over relational tables
     agree with the naive / tabular / logical modes, auction for auction. *)
  qtest ~count:10 "naive = tabular = logical = SQL"
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let rng = Essa_util.Rng.create seed in
      let n = 2 + Essa_util.Rng.int rng 8 in
      let nk = 1 + Essa_util.Rng.int rng 3 in
      let base = random_states rng n nk in
      let fleets =
        List.map
          (fun make -> make (Array.map Roi_state.copy base))
          [ Roi_fleet.naive; Roi_fleet.tabular; Roi_fleet.logical; Roi_fleet.sql ]
      in
      let ok = ref true in
      for time = 1 to 120 do
        let kw = Essa_util.Rng.int rng nk in
        List.iter (fun f -> Roi_fleet.on_auction f ~time ~keyword:kw) fleets;
        let winners =
          List.sort_uniq compare
            (List.init (Essa_util.Rng.int rng 3) (fun _ -> Essa_util.Rng.int rng n))
        in
        List.iter
          (fun adv ->
            let clicked = Essa_util.Rng.bool rng in
            let price = Essa_util.Rng.int rng 25 in
            List.iter
              (fun f -> Roi_fleet.record_win f ~time ~adv ~keyword:kw ~price ~clicked)
              fleets)
          winners;
        let snaps = List.map (fun f -> Roi_fleet.snapshot_bids f ~keyword:kw) fleets in
        (match snaps with
        | first :: rest -> if not (List.for_all (( = ) first) rest) then ok := false
        | [] -> ok := false)
      done;
      !ok)

let sorted_pairs_of_snapshot snapshot =
  let pairs = Array.to_list (Array.mapi (fun adv b -> (adv, b)) snapshot) in
  List.sort
    (fun (ia, ba) (ib, bb) ->
      let c = Int.compare bb ba in
      if c <> 0 then c else Int.compare ia ib)
    pairs

let prop_bid_index_matches_resort =
  (* The incremental per-keyword index (naive/tabular bids_desc) against
     ground truth after randomized auction / win / budget-exhaustion
     traces.  [debug_checks] additionally asserts the index against a full
     re-sort inside every repair. *)
  qtest ~count:25 "incremental bid index = full re-sort"
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      Bid_index.debug_checks := true;
      Fun.protect
        ~finally:(fun () -> Bid_index.debug_checks := false)
        (fun () ->
          let rng = Essa_util.Rng.create seed in
          let n = 2 + Essa_util.Rng.int rng 20 in
          let nk = 1 + Essa_util.Rng.int rng 4 in
          let base =
            Array.init n (fun _ ->
                let values =
                  Array.init nk (fun _ -> 1 + Essa_util.Rng.int rng 50)
                in
                let maxv = Array.fold_left max 1 values in
                Roi_state.create ~values
                  (* Small budgets so record_win's retire-all-bids path
                     (note_all) fires often. *)
                  ?budget:(if Essa_util.Rng.bool rng
                           then Some (5 + Essa_util.Rng.int rng 40)
                           else None)
                  ~target_rate:(Essa_util.Rng.float_in rng 1.0 (float_of_int maxv))
                  ())
          in
          let fleets =
            List.map
              (fun make -> make (Array.map Roi_state.copy base))
              [ Roi_fleet.naive; Roi_fleet.tabular ]
          in
          let ok = ref true in
          for time = 1 to 200 do
            let kw = Essa_util.Rng.int rng nk in
            List.iter (fun f -> Roi_fleet.on_auction f ~time ~keyword:kw) fleets;
            List.iter
              (fun adv ->
                let clicked = Essa_util.Rng.bool rng in
                let price = Essa_util.Rng.int rng 25 in
                List.iter
                  (fun f ->
                    Roi_fleet.record_win f ~time ~adv ~keyword:kw ~price ~clicked)
                  fleets)
              (List.sort_uniq compare
                 (List.init (Essa_util.Rng.int rng 3) (fun _ ->
                      Essa_util.Rng.int rng n)));
            (* Read a keyword other than the auctioned one too: its dirty
               entries (budget retirements touch all keywords) repair on
               this read. *)
            List.iter
              (fun kw ->
                List.iter
                  (fun f ->
                    let expect =
                      sorted_pairs_of_snapshot (Roi_fleet.snapshot_bids f ~keyword:kw)
                    in
                    if List.of_seq (Roi_fleet.bids_desc f ~keyword:kw) <> expect
                    then ok := false)
                  fleets)
              [ kw; Essa_util.Rng.int rng nk ]
          done;
          !ok))

let prop_bids_desc_cross_strategy =
  (* All four strategies serve the same descending iterator — the naive /
     tabular incremental indexes, the SQL re-sort and the logical 3-way
     merge agree element for element. *)
  qtest ~count:10 "bids_desc agrees across all strategies"
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let rng = Essa_util.Rng.create seed in
      let n = 2 + Essa_util.Rng.int rng 8 in
      let nk = 1 + Essa_util.Rng.int rng 3 in
      let base = random_states rng n nk in
      let fleets =
        List.map
          (fun make -> make (Array.map Roi_state.copy base))
          [ Roi_fleet.naive; Roi_fleet.tabular; Roi_fleet.logical; Roi_fleet.sql ]
      in
      let ok = ref true in
      for time = 1 to 120 do
        let kw = Essa_util.Rng.int rng nk in
        List.iter (fun f -> Roi_fleet.on_auction f ~time ~keyword:kw) fleets;
        List.iter
          (fun adv ->
            let clicked = Essa_util.Rng.bool rng in
            let price = Essa_util.Rng.int rng 25 in
            List.iter
              (fun f -> Roi_fleet.record_win f ~time ~adv ~keyword:kw ~price ~clicked)
              fleets)
          (List.sort_uniq compare
             (List.init (Essa_util.Rng.int rng 3) (fun _ -> Essa_util.Rng.int rng n)));
        for kw = 0 to nk - 1 do
          match
            List.map (fun f -> List.of_seq (Roi_fleet.bids_desc f ~keyword:kw)) fleets
          with
          | first :: rest -> if not (List.for_all (( = ) first) rest) then ok := false
          | [] -> ok := false
        done
      done;
      !ok)

let test_fleet_sql_rejects_budgets () =
  let st = Roi_state.create ~values:[| 5 |] ~budget:10 ~target_rate:1.0 () in
  Alcotest.(check bool) "rejected" true
    (match Roi_fleet.sql [| st |] with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_fleet_logical_bound_edges () =
  (* One advertiser driven into both bounds: up to maxbid, then (after a
     big win) down to zero, then (rate decayed) back up — exercising bound
     triggers and the spend-rate trigger. *)
  let states () =
    [| Roi_state.create ~values:[| 4 |] ~initial_bids:[| 2 |] ~target_rate:2.0 () |]
  in
  let naive = Roi_fleet.naive (states ()) in
  let logical = Roi_fleet.logical (states ()) in
  let check time =
    Alcotest.(check int)
      (Printf.sprintf "bids agree at t=%d" time)
      (Roi_fleet.bid naive ~adv:0 ~keyword:0)
      (Roi_fleet.bid logical ~adv:0 ~keyword:0)
  in
  let both f = List.iter f [ naive; logical ] in
  (* Climb to maxbid (2 -> 4) and sit there. *)
  for time = 1 to 4 do
    both (fun fl -> Roi_fleet.on_auction fl ~time ~keyword:0);
    check time
  done;
  Alcotest.(check int) "clamped at maxbid" 4 (Roi_fleet.bid logical ~adv:0 ~keyword:0);
  (* Big win at t=5: 100 cents ≫ 2/auction target -> overspending. *)
  both (fun fl -> Roi_fleet.record_win fl ~time:5 ~adv:0 ~keyword:0 ~price:100 ~clicked:true);
  for time = 6 to 12 do
    both (fun fl -> Roi_fleet.on_auction fl ~time ~keyword:0);
    check time
  done;
  Alcotest.(check int) "driven to zero" 0 (Roi_fleet.bid logical ~adv:0 ~keyword:0);
  (* Spend rate decays below 2.0 at t=50; bids recover afterwards. *)
  for time = 13 to 60 do
    both (fun fl -> Roi_fleet.on_auction fl ~time ~keyword:0);
    check time
  done;
  Alcotest.(check bool) "recovered" true (Roi_fleet.bid logical ~adv:0 ~keyword:0 > 0)

let test_fleet_keyword_isolation () =
  (* Auctions on keyword 0 must not move bids for keyword 1. *)
  let fleet =
    Roi_fleet.logical
      [| Roi_state.create ~values:[| 10; 10 |] ~initial_bids:[| 5; 5 |] ~target_rate:1.0 () |]
  in
  for time = 1 to 3 do
    Roi_fleet.on_auction fleet ~time ~keyword:0
  done;
  Alcotest.(check int) "keyword 0 moved" 8 (Roi_fleet.bid fleet ~adv:0 ~keyword:0);
  Alcotest.(check int) "keyword 1 frozen" 5 (Roi_fleet.bid fleet ~adv:0 ~keyword:1)

let test_fleet_interface_guards () =
  let fleet = Roi_fleet.naive [| mk_state () |] in
  Alcotest.(check int) "n" 1 (Roi_fleet.n fleet);
  Alcotest.(check int) "nk" 2 (Roi_fleet.num_keywords fleet);
  Alcotest.(check bool) "bad keyword" true
    (match Roi_fleet.bid fleet ~adv:0 ~keyword:7 with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Partitioned fleets (naive_p / logical_p) *)

let random_states_budgeted rng n nk =
  Array.init n (fun _ ->
      let values = Array.init nk (fun _ -> Essa_util.Rng.int rng 51) in
      if Array.for_all (fun v -> v = 0) values then
        values.(0) <- 1 + Essa_util.Rng.int rng 50;
      let maxv = Array.fold_left max 1 values in
      let budget =
        if Essa_util.Rng.int rng 3 = 0 then
          Some (20 + Essa_util.Rng.int rng 200)
        else None
      in
      Roi_state.create ~values ?budget
        ~target_rate:(Essa_util.Rng.float_in rng 1.0 (float_of_int maxv))
        ())

let prop_partitioned_two_way_equivalence =
  (* naive_p and logical_p must be observationally identical under any
     per-keyword trace: same snapshots, same keyword clocks, same bids
     after every auction — including lazy budget retirement and the
     deferred re-seat, which both apply from the next snapshot. *)
  qtest ~count:25 "naive_p = logical_p over random per-keyword traces"
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let rng = Essa_util.Rng.create seed in
      let n = 2 + Essa_util.Rng.int rng 25 in
      let nk = 1 + Essa_util.Rng.int rng 4 in
      let base = random_states_budgeted rng n nk in
      let fleets =
        List.map
          (fun make -> make (Array.map Roi_state.copy base))
          [ Roi_fleet.naive_p; Roi_fleet.logical_p ]
      in
      let ok = ref true in
      let check_eq a b = if a <> b then ok := false in
      for _step = 1 to 250 do
        let kw = Essa_util.Rng.int rng nk in
        if Essa_util.Rng.int rng 10 = 0 then
          (* Unfilled-degrade path: clock advances, no adjustments. *)
          match List.map (fun f -> Roi_fleet.tick_p f ~keyword:kw) fleets with
          | [ a; b ] -> check_eq a b
          | _ -> ok := false
        else begin
          (match
             List.map
               (fun f ->
                 let kt, snap = Roi_fleet.begin_auction_p f ~keyword:kw () in
                 (kt, Array.copy snap))
               fleets
           with
          | [ a; b ] -> check_eq a b
          | _ -> ok := false);
          let winners =
            List.sort_uniq compare
              (List.init
                 (Essa_util.Rng.int rng 4)
                 (fun _ -> Essa_util.Rng.int rng n))
          in
          List.iter
            (fun adv ->
              let clicked = Essa_util.Rng.bool rng in
              let price = Essa_util.Rng.int rng 30 in
              List.iter
                (fun f ->
                  Roi_fleet.record_win_p f ~adv ~keyword:kw ~price ~clicked)
                fleets)
            winners
        end;
        (match
           List.map (fun f -> Roi_fleet.snapshot_bids f ~keyword:kw) fleets
         with
        | [ a; b ] -> check_eq a b
        | _ -> ok := false);
        match
          List.map
            (fun f -> List.of_seq (Roi_fleet.bids_desc f ~keyword:kw))
            fleets
        with
        | [ a; b ] -> check_eq a b
        | _ -> ok := false
      done;
      (match
         List.map
           (fun f -> List.init n (fun adv -> Roi_fleet.amt_spent f ~adv))
           fleets
       with
      | [ a; b ] -> check_eq a b
      | _ -> ok := false);
      !ok)

let test_partitioned_deferred_retirement () =
  (* Budget exhaustion through keyword 0 retires the advertiser's other
     bids lazily: keyword 1 only notices in its own next auction's
     snapshot — not at the moment of the charge. *)
  List.iter
    (fun make ->
      let fleet =
        make
          [|
            Roi_state.create ~values:[| 10; 10 |] ~initial_bids:[| 6; 6 |]
              ~budget:15 ~target_rate:1.0 ();
          |]
      in
      ignore (Roi_fleet.begin_auction_p fleet ~keyword:0 ());
      Roi_fleet.record_win_p fleet ~adv:0 ~keyword:0 ~price:20 ~clicked:true;
      Alcotest.(check int) "spend charged" 20 (Roi_fleet.amt_spent fleet ~adv:0);
      Alcotest.(check bool) "keyword 1 bid still live (deferred)" true
        (Roi_fleet.bid fleet ~adv:0 ~keyword:1 > 0);
      ignore (Roi_fleet.begin_auction_p fleet ~keyword:1 ());
      Alcotest.(check int) "keyword 1 retired on its next auction" 0
        (Roi_fleet.bid fleet ~adv:0 ~keyword:1);
      ignore (Roi_fleet.begin_auction_p fleet ~keyword:0 ());
      Alcotest.(check int) "keyword 0 retired on its next auction" 0
        (Roi_fleet.bid fleet ~adv:0 ~keyword:0))
    [ Roi_fleet.naive_p; Roi_fleet.logical_p ]

let test_partitioned_interface_guards () =
  let raises f = match f () with exception Invalid_argument _ -> true | _ -> false in
  let p = Roi_fleet.naive_p [| mk_state () |] in
  Alcotest.(check bool) "partitioned" true (Roi_fleet.partitioned p);
  Alcotest.(check int) "clock starts at 0" 0 (Roi_fleet.keyword_time p ~keyword:0);
  Alcotest.(check int) "tick advances" 1 (Roi_fleet.tick_p p ~keyword:0);
  Alcotest.(check int) "clock read back" 1 (Roi_fleet.keyword_time p ~keyword:0);
  Alcotest.(check bool) "serial on_auction raises on partitioned" true
    (raises (fun () -> Roi_fleet.on_auction p ~time:1 ~keyword:0));
  Alcotest.(check bool) "serial record_win raises on partitioned" true
    (raises (fun () ->
         Roi_fleet.record_win p ~time:1 ~adv:0 ~keyword:0 ~price:1
           ~clicked:true));
  let s = Roi_fleet.naive [| mk_state () |] in
  Alcotest.(check bool) "serial fleet is not partitioned" false
    (Roi_fleet.partitioned s);
  Alcotest.(check bool) "begin_auction_p raises on serial" true
    (raises (fun () -> ignore (Roi_fleet.begin_auction_p s ~keyword:0 ())));
  Alcotest.(check bool) "record_win_p raises on serial" true
    (raises (fun () ->
         Roi_fleet.record_win_p s ~adv:0 ~keyword:0 ~price:1 ~clicked:true))

(* ------------------------------------------------------------------ *)
(* Flat state store (the scalable slot-indexed layout) *)

let prop_flat_equals_dense_churn =
  (* The acceptance pin for the flat layout: begin_auction_p /
     record_win_p bit-identical to the dense naive_p store under any
     interleaving of auctions, ticks, win notifications and bidder
     churn.  Churn is mirrored — flat_enroll/flat_retire on the store,
     enroll_keyword/retire_keyword on the dense emulation (a
     non-participant carries all-zero parameters, which classify holds
     at bid 0 forever).  Budget-free: dense np_retired is sticky across
     a retire/re-enroll cycle while the flat slot resets, so budgets get
     their own static property below. *)
  qtest ~count:20 "flat_p = naive_p across churn sequences"
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let rng = Essa_util.Rng.create seed in
      let n = 3 + Essa_util.Rng.int rng 20 in
      let nk = 1 + Essa_util.Rng.int rng 4 in
      let targets =
        Array.init n (fun _ -> Essa_util.Rng.float_in rng 1.0 40.0)
      in
      let states =
        Array.init n (fun adv ->
            Roi_state.create ~values:(Array.make nk 0)
              ~initial_bids:(Array.make nk 0) ~target_rate:targets.(adv) ())
      in
      let dense = Roi_fleet.naive_p states in
      let store =
        State_store.create_flat ~num_keywords:nk ~n
          ~budgets:(Array.make n (-1)) ~targets ()
      in
      let flat = Roi_fleet.flat_p store in
      let member = Array.make_matrix nk n false in
      let enroll kw adv =
        if not member.(kw).(adv) then begin
          member.(kw).(adv) <- true;
          let v = 1 + Essa_util.Rng.int rng 50 in
          let bid = min v ((v + 1) / 2) in
          let premium =
            if Essa_util.Rng.int rng 4 = 0 then 1 + Essa_util.Rng.int rng 25
            else 0
          in
          State_store.flat_enroll store ~keyword:kw ~adv ~value:v ~maxbid:v
            ~bid ~premium;
          Roi_state.enroll_keyword states.(adv) ~keyword:kw ~value:v ~maxbid:v
            ~bid ~premium
        end
      in
      let retire kw adv =
        if member.(kw).(adv) then begin
          member.(kw).(adv) <- false;
          State_store.flat_retire store ~keyword:kw ~adv;
          Roi_state.retire_keyword states.(adv) ~keyword:kw
        end
      in
      for kw = 0 to nk - 1 do
        for adv = 0 to n - 1 do
          if Essa_util.Rng.int rng 2 = 0 then enroll kw adv
        done
      done;
      let ok = ref true in
      let check_eq a b = if a <> b then ok := false in
      for _step = 1 to 200 do
        let kw = Essa_util.Rng.int rng nk in
        (match Essa_util.Rng.int rng 4 with
        | 0 -> enroll kw (Essa_util.Rng.int rng n)
        | 1 -> retire kw (Essa_util.Rng.int rng n)
        | _ -> ());
        if Essa_util.Rng.int rng 8 = 0 then
          check_eq
            (Roi_fleet.tick_p dense ~keyword:kw)
            (Roi_fleet.tick_p flat ~keyword:kw)
        else begin
          let dt, dsnap = Roi_fleet.begin_auction_p dense ~keyword:kw () in
          let dsnap = Array.copy dsnap in
          let ft, fsnap = Roi_fleet.begin_auction_p flat ~keyword:kw () in
          check_eq dt ft;
          for adv = 0 to n - 1 do
            (match Roi_fleet.snapshot_index flat ~keyword:kw ~adv with
            | Some slot -> check_eq fsnap.(slot) dsnap.(adv)
            | None -> if member.(kw).(adv) then ok := false);
            check_eq
              (Roi_fleet.bid dense ~adv ~keyword:kw)
              (Roi_fleet.bid flat ~adv ~keyword:kw)
          done;
          for _ = 1 to Essa_util.Rng.int rng 3 do
            let adv = Essa_util.Rng.int rng n in
            let clicked = Essa_util.Rng.bool rng in
            let price = Essa_util.Rng.int rng 30 in
            Roi_fleet.record_win_p dense ~adv ~keyword:kw ~price ~clicked;
            Roi_fleet.record_win_p flat ~adv ~keyword:kw ~price ~clicked
          done
        end
      done;
      for adv = 0 to n - 1 do
        check_eq (Roi_fleet.amt_spent dense ~adv) (Roi_fleet.amt_spent flat ~adv)
      done;
      !ok)

let prop_flat_equals_dense_budgets =
  (* Static membership, budgets in play: lazy per-keyword budget
     retirement (bretired / np_retired) must fire at the same keyword
     times on both layouts. *)
  qtest ~count:20 "flat_p = naive_p with budgets (static membership)"
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let rng = Essa_util.Rng.create seed in
      let n = 3 + Essa_util.Rng.int rng 15 in
      let nk = 1 + Essa_util.Rng.int rng 3 in
      let targets =
        Array.init n (fun _ -> Essa_util.Rng.float_in rng 1.0 40.0)
      in
      let budgets =
        Array.init n (fun _ ->
            if Essa_util.Rng.int rng 3 = 0 then 20 + Essa_util.Rng.int rng 100
            else -1)
      in
      let values =
        Array.init n (fun _ ->
            Array.init nk (fun _ -> 1 + Essa_util.Rng.int rng 50))
      in
      let bids = Array.map (Array.map (fun v -> min v ((v + 1) / 2))) values in
      let states =
        Array.init n (fun adv ->
            Roi_state.create ~values:values.(adv) ~initial_bids:bids.(adv)
              ?budget:(if budgets.(adv) < 0 then None else Some budgets.(adv))
              ~target_rate:targets.(adv) ())
      in
      let dense = Roi_fleet.naive_p states in
      let store =
        State_store.create_flat ~num_keywords:nk ~n ~budgets ~targets ()
      in
      for kw = 0 to nk - 1 do
        for adv = 0 to n - 1 do
          State_store.flat_enroll store ~keyword:kw ~adv
            ~value:values.(adv).(kw) ~maxbid:values.(adv).(kw)
            ~bid:bids.(adv).(kw) ~premium:0
        done
      done;
      let flat = Roi_fleet.flat_p store in
      let ok = ref true in
      let check_eq a b = if a <> b then ok := false in
      for _step = 1 to 150 do
        let kw = Essa_util.Rng.int rng nk in
        let dt, dsnap = Roi_fleet.begin_auction_p dense ~keyword:kw () in
        let dsnap = Array.copy dsnap in
        let ft, fsnap = Roi_fleet.begin_auction_p flat ~keyword:kw () in
        check_eq dt ft;
        for adv = 0 to n - 1 do
          (match Roi_fleet.snapshot_index flat ~keyword:kw ~adv with
          | Some slot -> check_eq fsnap.(slot) dsnap.(adv)
          | None -> ok := false);
          check_eq
            (Roi_fleet.bid dense ~adv ~keyword:kw)
            (Roi_fleet.bid flat ~adv ~keyword:kw)
        done;
        let adv = Essa_util.Rng.int rng n in
        let price = 10 + Essa_util.Rng.int rng 30 in
        Roi_fleet.record_win_p dense ~adv ~keyword:kw ~price ~clicked:true;
        Roi_fleet.record_win_p flat ~adv ~keyword:kw ~price ~clicked:true
      done;
      !ok)

let test_flat_free_list () =
  let store =
    State_store.create_flat ~num_keywords:1 ~n:64
      ~budgets:(Array.make 64 (-1)) ~targets:(Array.make 64 1.0) ()
  in
  let enroll adv =
    State_store.flat_enroll store ~keyword:0 ~adv ~value:10 ~maxbid:10 ~bid:5
      ~premium:0
  in
  let stats () = State_store.flat_stats store ~keyword:0 in
  let invariant label =
    let s = stats () in
    Alcotest.(check int) (label ^ ": len = live + free") s.State_store.fs_len
      (s.State_store.fs_live + s.State_store.fs_free);
    Alcotest.(check bool) (label ^ ": len <= capacity") true
      (s.State_store.fs_len <= s.State_store.fs_capacity)
  in
  for adv = 0 to 9 do enroll adv done;
  invariant "after enrolls";
  Alcotest.(check int) "ten live" 10 (stats ()).State_store.fs_live;
  List.iter
    (fun adv -> State_store.flat_retire store ~keyword:0 ~adv)
    [ 2; 5; 7 ];
  invariant "after retires";
  Alcotest.(check int) "three freed" 3 (stats ()).State_store.fs_free;
  Alcotest.(check int) "len unchanged by retire" 10
    (stats ()).State_store.fs_len;
  (* Re-enrollment reuses freed slots before growing the arrays. *)
  enroll 40;
  enroll 41;
  invariant "after reuse";
  Alcotest.(check int) "freed slots reused, no growth" 10
    (stats ()).State_store.fs_len;
  Alcotest.(check int) "one slot still free" 1 (stats ()).State_store.fs_free;
  (* The recycled slot carries the new advertiser, not stale state. *)
  Alcotest.(check bool) "arrival is a member" true
    (State_store.flat_member store ~keyword:0 ~adv:40);
  Alcotest.(check int) "arrival's fresh bid" 5
    (State_store.flat_bid store ~keyword:0 ~adv:40);
  Alcotest.(check bool) "departed is not a member" false
    (State_store.flat_member store ~keyword:0 ~adv:2);
  Alcotest.(check int) "departed bid reads 0" 0
    (State_store.flat_bid store ~keyword:0 ~adv:2);
  (* Growth: capacity doubles once slots and free-list are exhausted. *)
  for adv = 10 to 39 do enroll adv done;
  invariant "after growth";
  Alcotest.(check bool) "capacity grew" true
    ((stats ()).State_store.fs_capacity >= 39);
  Alcotest.(check int) "all live" 39 (stats ()).State_store.fs_live;
  let raises f =
    match f () with exception Invalid_argument _ -> true | _ -> false
  in
  Alcotest.(check bool) "duplicate enroll raises" true (raises (fun () -> enroll 40));
  Alcotest.(check bool) "retiring a stranger raises" true
    (raises (fun () -> State_store.flat_retire store ~keyword:0 ~adv:63))

let test_flat_budget_retirement () =
  (* A budgeted bidder whose snapshot spend reaches the budget is retired
     lazily by the keyword's next auction — bid zeroed exactly once. *)
  let store =
    State_store.create_flat ~num_keywords:2 ~n:2 ~budgets:[| 12; -1 |]
      ~targets:[| 1.0; 1.0 |] ()
  in
  for kw = 0 to 1 do
    State_store.flat_enroll store ~keyword:kw ~adv:0 ~value:10 ~maxbid:10
      ~bid:5 ~premium:0;
    State_store.flat_enroll store ~keyword:kw ~adv:1 ~value:10 ~maxbid:10
      ~bid:5 ~premium:0
  done;
  let fleet = Roi_fleet.flat_p store in
  ignore (Roi_fleet.begin_auction_p fleet ~keyword:0 ());
  Roi_fleet.record_win_p fleet ~adv:0 ~keyword:0 ~price:15 ~clicked:true;
  Alcotest.(check int) "spend charged" 15 (Roi_fleet.amt_spent fleet ~adv:0);
  Alcotest.(check bool) "keyword 1 bid still live (deferred)" true
    (Roi_fleet.bid fleet ~adv:0 ~keyword:1 > 0);
  ignore (Roi_fleet.begin_auction_p fleet ~keyword:1 ());
  Alcotest.(check int) "keyword 1 retired on its next auction" 0
    (Roi_fleet.bid fleet ~adv:0 ~keyword:1);
  ignore (Roi_fleet.begin_auction_p fleet ~keyword:0 ());
  Alcotest.(check int) "keyword 0 retired on its next auction" 0
    (Roi_fleet.bid fleet ~adv:0 ~keyword:0);
  (* The unbudgeted bidder keeps adjusting. *)
  Alcotest.(check bool) "unbudgeted bidder unaffected" true
    (Roi_fleet.bid fleet ~adv:1 ~keyword:0 > 0)

let test_flat_interface_guards () =
  let raises f =
    match f () with exception Invalid_argument _ -> true | _ -> false
  in
  Alcotest.(check bool) "create_flat rejects n < 1" true
    (raises (fun () ->
         State_store.create_flat ~num_keywords:1 ~n:0 ~budgets:[||]
           ~targets:[||] ()));
  Alcotest.(check bool) "create_flat rejects bad target" true
    (raises (fun () ->
         State_store.create_flat ~num_keywords:1 ~n:1 ~budgets:[| -1 |]
           ~targets:[| 0.0 |] ()));
  Alcotest.(check bool) "flat_p rejects a dense store" true
    (raises (fun () ->
         Roi_fleet.flat_p (State_store.create [| mk_state () |] ~num_keywords:2)));
  let store =
    State_store.create_flat ~num_keywords:2 ~n:3 ~budgets:[| 50; -1; -1 |]
      ~targets:[| 1.0; 2.0; 3.0 |] ()
  in
  State_store.flat_enroll store ~keyword:0 ~adv:0 ~value:10 ~maxbid:10 ~bid:4
    ~premium:3;
  let fleet = Roi_fleet.flat_p store in
  Alcotest.(check bool) "partitioned" true (Roi_fleet.partitioned fleet);
  Alcotest.(check bool) "is_flat" true (Roi_fleet.is_flat fleet);
  Alcotest.(check int) "n" 3 (Roi_fleet.n fleet);
  Alcotest.(check bool) "state raises on flat" true
    (raises (fun () -> ignore (Roi_fleet.state fleet ~adv:0)));
  Alcotest.(check bool) "bids_desc raises on flat" true
    (raises (fun () ->
         ignore (List.of_seq (Roi_fleet.bids_desc fleet ~keyword:0))));
  Alcotest.(check bool) "budget_of budgeted" true
    (Roi_fleet.budget_of fleet ~adv:0 = Some 50);
  Alcotest.(check bool) "budget_of unbudgeted" true
    (Roi_fleet.budget_of fleet ~adv:1 = None);
  Alcotest.(check int) "premium_of enrolled" 3
    (Roi_fleet.premium_of fleet ~adv:0 ~keyword:0);
  Alcotest.(check int) "premium_of not enrolled" 0
    (Roi_fleet.premium_of fleet ~adv:0 ~keyword:1);
  Alcotest.(check bool) "snapshot_index enrolled" true
    (Roi_fleet.snapshot_index fleet ~keyword:0 ~adv:0 = Some 0);
  Alcotest.(check bool) "snapshot_index not enrolled" true
    (Roi_fleet.snapshot_index fleet ~keyword:0 ~adv:2 = None)

(* ------------------------------------------------------------------ *)
(* Ramp_fleet (Section IV-A, multi-parameter TA) *)

let test_ramp_bid_formula () =
  let fleet =
    Ramp_fleet.create ~starts:[| 2; 10 |] ~rates:[| 3; 0 |] ~budgets:[| 100; 4 |]
  in
  Alcotest.(check int) "ramping" 14 (Ramp_fleet.bid fleet ~adv:0 ~time:4);
  Alcotest.(check int) "capped by budget" 4 (Ramp_fleet.bid fleet ~adv:1 ~time:4)

let test_ramp_win_updates_remaining () =
  let fleet = Ramp_fleet.create ~starts:[| 5 |] ~rates:[| 1 |] ~budgets:[| 10 |] in
  Ramp_fleet.record_win fleet ~adv:0 ~price:7;
  Alcotest.(check int) "remaining" 3 (Ramp_fleet.remaining fleet ~adv:0);
  Alcotest.(check int) "bid capped" 3 (Ramp_fleet.bid fleet ~adv:0 ~time:50);
  Ramp_fleet.record_win fleet ~adv:0 ~price:100;
  Alcotest.(check int) "floored at zero" 0 (Ramp_fleet.remaining fleet ~adv:0)

let test_ramp_validation () =
  let bad f = match f () with exception Invalid_argument _ -> true | _ -> false in
  Alcotest.(check bool) "length mismatch" true
    (bad (fun () -> Ramp_fleet.create ~starts:[| 1 |] ~rates:[||] ~budgets:[| 1 |]));
  Alcotest.(check bool) "negative" true
    (bad (fun () -> Ramp_fleet.create ~starts:[| -1 |] ~rates:[| 0 |] ~budgets:[| 0 |]))

let prop_ramp_ta_equals_naive =
  qtest ~count:40 "ramp TA top-k = full scan"
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let rng = Essa_util.Rng.create seed in
      let n = 5 + Essa_util.Rng.int rng 200 in
      let starts = Array.init n (fun _ -> Essa_util.Rng.int rng 30) in
      let rates = Array.init n (fun _ -> Essa_util.Rng.int rng 5) in
      let budgets = Array.init n (fun _ -> Essa_util.Rng.int rng 300) in
      let fleet = Ramp_fleet.create ~starts ~rates ~budgets in
      let ctr = Array.init n (fun _ -> Essa_util.Rng.float_in rng 0.05 0.9) in
      let ctr_sorted = Array.init n (fun i -> (i, ctr.(i))) in
      Array.sort
        (fun (ia, a) (ib, b) ->
          let c = Float.compare b a in
          if c <> 0 then c else Int.compare ia ib)
        ctr_sorted;
      let ok = ref true in
      for round = 1 to 5 do
        for _ = 1 to Essa_util.Rng.int rng 10 do
          Ramp_fleet.record_win fleet ~adv:(Essa_util.Rng.int rng n)
            ~price:(Essa_util.Rng.int rng 40)
        done;
        let time = round * (1 + Essa_util.Rng.int rng 10) in
        let k = Essa_util.Rng.int rng 10 in
        let ta, _ =
          Ramp_fleet.top_k_ta fleet ~ctr_sorted ~ctr_lookup:(fun i -> ctr.(i)) ~time ~k
        in
        let naive = Ramp_fleet.top_k_naive fleet ~ctr_lookup:(fun i -> ctr.(i)) ~time ~k in
        if ta <> naive then ok := false
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Dirty epochs: the validity test of the engine's evaluation cache.
   Two halves.  Safety: whenever [epoch_of] reads equal across a window
   of operations, the keyword's bids were bit-identical at both reads —
   a cache hit can never serve stale bids.  Liveness: every mutation
   path (enroll, retire, begin-pass bid move, budget retirement,
   adjustment-list move) bumps it, while a bare charge — which cannot
   affect evaluation until the next begin pass — does not. *)

let prop_epoch_stability_serial =
  qtest ~count:40 "equal epochs bracket identical bids (serial fleets)"
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let rng = Essa_util.Rng.create seed in
      let n = 2 + Essa_util.Rng.int rng 10 in
      let nk = 1 + Essa_util.Rng.int rng 3 in
      let base =
        Array.init n (fun _ ->
            let values = Array.init nk (fun _ -> 1 + Essa_util.Rng.int rng 50) in
            let maxv = Array.fold_left max 1 values in
            Roi_state.create ~values
              ?budget:
                (if Essa_util.Rng.bool rng then
                   Some (5 + Essa_util.Rng.int rng 60)
                 else None)
              ~target_rate:(Essa_util.Rng.float_in rng 1.0 (float_of_int maxv))
              ())
      in
      let fleets =
        List.map
          (fun make -> make (Array.map Roi_state.copy base))
          [ Roi_fleet.naive; Roi_fleet.tabular; Roi_fleet.logical ]
      in
      let ok = ref true in
      let observe f kw = (Roi_fleet.epoch_of f ~keyword:kw, Roi_fleet.snapshot_bids f ~keyword:kw) in
      let last = List.map (fun f -> Array.init nk (observe f)) fleets in
      for time = 1 to 120 do
        let kw = Essa_util.Rng.int rng nk in
        List.iter (fun f -> Roi_fleet.on_auction f ~time ~keyword:kw) fleets;
        List.iter
          (fun adv ->
            let clicked = Essa_util.Rng.bool rng in
            let price = Essa_util.Rng.int rng 25 in
            List.iter
              (fun f ->
                Roi_fleet.record_win f ~time ~adv ~keyword:kw ~price ~clicked)
              fleets)
          (List.sort_uniq compare
             (List.init (Essa_util.Rng.int rng 3) (fun _ ->
                  Essa_util.Rng.int rng n)));
        List.iter2
          (fun f prev ->
            for kw = 0 to nk - 1 do
              let (e0, bids0) = prev.(kw) in
              let (e1, bids1) = observe f kw in
              if e1 = e0 && bids1 <> bids0 then ok := false;
              if e1 < e0 then ok := false;
              prev.(kw) <- (e1, bids1)
            done)
          fleets last
      done;
      !ok)

let prop_epoch_stability_partitioned =
  qtest ~count:40 "equal epochs bracket identical bids (partitioned + flat)"
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let rng = Essa_util.Rng.create seed in
      let n = 2 + Essa_util.Rng.int rng 10 in
      let nk = 1 + Essa_util.Rng.int rng 3 in
      let values =
        Array.init n (fun _ ->
            Array.init nk (fun _ -> 1 + Essa_util.Rng.int rng 50))
      in
      let budgets =
        Array.init n (fun _ ->
            if Essa_util.Rng.bool rng then 5 + Essa_util.Rng.int rng 60 else -1)
      in
      let targets =
        Array.init n (fun i ->
            let maxv = Array.fold_left max 1 values.(i) in
            Essa_util.Rng.float_in rng 1.0 (float_of_int maxv))
      in
      let states () =
        Array.init n (fun i ->
            Roi_state.create ~values:values.(i)
              ?budget:(if budgets.(i) >= 0 then Some budgets.(i) else None)
              ~target_rate:targets.(i) ())
      in
      let store = State_store.create_flat ~num_keywords:nk ~n ~budgets ~targets () in
      for adv = 0 to n - 1 do
        for kw = 0 to nk - 1 do
          let v = values.(adv).(kw) in
          State_store.flat_enroll store ~keyword:kw ~adv ~value:v ~maxbid:v
            ~bid:(v / 2) ~premium:0
        done
      done;
      let fleets =
        [
          Roi_fleet.naive_p (states ());
          Roi_fleet.logical_p (states ());
          Roi_fleet.flat_p store;
        ]
      in
      let ok = ref true in
      let observe f kw =
        ( Roi_fleet.epoch_of f ~keyword:kw,
          Array.init n (fun adv -> Roi_fleet.bid f ~adv ~keyword:kw) )
      in
      let last = List.map (fun f -> Array.init nk (observe f)) fleets in
      for _ = 1 to 120 do
        let kw = Essa_util.Rng.int rng nk in
        List.iter
          (fun f -> ignore (Roi_fleet.begin_auction_p f ~keyword:kw ()))
          fleets;
        List.iter
          (fun adv ->
            let clicked = Essa_util.Rng.bool rng in
            let price = Essa_util.Rng.int rng 25 in
            List.iter
              (fun f ->
                Roi_fleet.record_win_p f ~adv ~keyword:kw ~price ~clicked)
              fleets)
          (List.sort_uniq compare
             (List.init (Essa_util.Rng.int rng 3) (fun _ ->
                  Essa_util.Rng.int rng n)));
        List.iter2
          (fun f prev ->
            for kw = 0 to nk - 1 do
              let (e0, bids0) = prev.(kw) in
              let (e1, bids1) = observe f kw in
              if e1 = e0 && bids1 <> bids0 then ok := false;
              if e1 < e0 then ok := false;
              prev.(kw) <- (e1, bids1)
            done)
          fleets last
      done;
      !ok)

let test_epoch_bumps_flat () =
  (* Liveness on the flat store, one mutation path at a time. *)
  let store =
    State_store.create_flat ~num_keywords:2 ~n:8 ~budgets:(Array.make 8 (-1))
      ~targets:(Array.make 8 40.0) ()
  in
  let e () = State_store.epoch_of store ~keyword:0 in
  let e0 = e () in
  State_store.flat_enroll store ~keyword:0 ~adv:0 ~value:10 ~maxbid:10 ~bid:5
    ~premium:0;
  let e1 = e () in
  Alcotest.(check bool) "enroll bumps" true (e1 > e0);
  (* Underspending (target 40/auction, spend 0) and below maxbid: the
     begin pass moves the bid up, so it must bump. *)
  let e_pre = e () in
  ignore (State_store.flat_begin_auction store ~keyword:0 ());
  Alcotest.(check bool) "begin-pass bid move bumps" true (e () > e_pre);
  (* A bare charge does not reach evaluation until the next begin pass:
     no bump. *)
  let e_pre = e () in
  ignore (State_store.charge store ~adv:0 ~price:3);
  State_store.flat_record_win store ~adv:0 ~keyword:0 ~price:3;
  Alcotest.(check int) "bare charge does not bump" e_pre (e ());
  (* A begin pass where no bid can move (bid pinned at maxbid by a huge
     spend lead... use retire instead: structural mutation bumps). *)
  let e_pre = e () in
  State_store.flat_retire store ~keyword:0 ~adv:0;
  Alcotest.(check bool) "retire bumps" true (e () > e_pre);
  (* Keyword isolation: keyword 1 never moved. *)
  Alcotest.(check int) "other keyword untouched" 0
    (State_store.epoch_of store ~keyword:1);
  (* The explicit dense-fleet hook. *)
  let e_pre = e () in
  State_store.bump_epoch store ~keyword:0;
  Alcotest.(check int) "bump_epoch bumps by one" (e_pre + 1) (e ())

let test_epoch_bumps_flat_budget_retirement () =
  (* Budget exhaustion is observed lazily by the begin pass: the pass
     that zeroes the bid must bump the epoch. *)
  let store =
    State_store.create_flat ~num_keywords:1 ~n:1 ~budgets:[| 5 |]
      ~targets:[| 1.0 |] ()
  in
  State_store.flat_enroll store ~keyword:0 ~adv:0 ~value:10 ~maxbid:10 ~bid:4
    ~premium:0;
  ignore (State_store.charge store ~adv:0 ~price:50);
  let e_pre = State_store.epoch_of store ~keyword:0 in
  ignore (State_store.flat_begin_auction store ~keyword:0 ());
  Alcotest.(check bool) "lazy retirement bumps" true
    (State_store.epoch_of store ~keyword:0 > e_pre);
  Alcotest.(check int) "bid zeroed" 0 (State_store.flat_bid store ~keyword:0 ~adv:0);
  (* Once retired, further begin passes change nothing: no bump. *)
  let e_pre = State_store.epoch_of store ~keyword:0 in
  ignore (State_store.flat_begin_auction store ~keyword:0 ());
  Alcotest.(check int) "stable after retirement" e_pre
    (State_store.epoch_of store ~keyword:0)

let test_epoch_bumps_churn_tick () =
  (* Scheduled churn flows through flat_enroll/flat_retire inside the
     on-tick hook: a churn tick that moves membership bumps the epoch. *)
  let store =
    State_store.create_flat ~num_keywords:1 ~n:4 ~budgets:(Array.make 4 (-1))
      ~targets:(Array.make 4 1.0) ()
  in
  (* Pin the lone enrollee at maxbid with an over-pace spend so the
     classify step never moves its bid — any bump is the churn's. *)
  State_store.flat_enroll store ~keyword:0 ~adv:0 ~value:10 ~maxbid:10 ~bid:0
    ~premium:0;
  ignore (State_store.charge store ~adv:0 ~price:1000);
  State_store.set_on_tick store
    (Some
       (fun ~keyword ~time ->
         if time = 2 then
           State_store.flat_enroll store ~keyword ~adv:1 ~value:7 ~maxbid:7
             ~bid:7 ~premium:0));
  ignore (State_store.flat_begin_auction store ~keyword:0 ());
  let e_pre = State_store.epoch_of store ~keyword:0 in
  ignore (State_store.flat_begin_auction store ~keyword:0 ());  (* time 2 *)
  Alcotest.(check bool) "churn arrival bumps" true
    (State_store.epoch_of store ~keyword:0 > e_pre)

let test_epoch_bumps_dense_adjustment () =
  (* The serial logical fleet's bulk adjustment moves every member of a
     non-empty inc/dec list: on_auction must bump.  One underspending
     advertiser below maxbid sits in the inc list. *)
  let st =
    Roi_state.create ~values:[| 10 |] ~initial_bids:[| 2 |] ~target_rate:9.0 ()
  in
  let fleet = Roi_fleet.logical [| st |] in
  let e0 = Roi_fleet.epoch_of fleet ~keyword:0 in
  Roi_fleet.on_auction fleet ~time:1 ~keyword:0;
  Alcotest.(check bool) "bulk adjustment bumps" true
    (Roi_fleet.epoch_of fleet ~keyword:0 > e0);
  Alcotest.(check int) "and moved the bid" 3 (Roi_fleet.bid fleet ~adv:0 ~keyword:0)

let test_ramp_ta_sublinear_on_skew () =
  (* One advertiser with a huge budgeted ramp dominates: TA must finish
     early even with four lists. *)
  let n = 5000 in
  let starts = Array.make n 1 in
  starts.(42) <- 1000;
  let fleet =
    Ramp_fleet.create ~starts ~rates:(Array.make n 0)
      ~budgets:(Array.make n 10_000)
  in
  let ctr_sorted = Array.init n (fun i -> (i, 0.5)) in
  let _, stats =
    Ramp_fleet.top_k_ta fleet ~ctr_sorted ~ctr_lookup:(fun _ -> 0.5) ~time:1 ~k:1
  in
  Alcotest.(check bool) "saw far fewer than n" true (stats.seen_objects < n / 2)

(* ------------------------------------------------------------------ *)
(* Section IV at bench scale: 1000 advertisers on 10 keywords, so each
   keyword's constant list holds nearly all of them and every move
   between lists shifts deep into a long list.  The digests of every
   summary's (assignment, prices, clicks, revenue, spend_snapshot) and
   the threshold-algorithm and reduction counters were computed with the
   tree-backed adjustment lists; the engine must reproduce them
   bit-for-bit. *)

let bench_scale_workload () =
  Essa_sim.Workload.section5 ~seed:1 ~n:1000 ~k:15 ~num_keywords:10 ()

let check_scale_pin ~digest ~counters metrics summaries =
  let rows =
    Array.map
      (fun s ->
        Essa.Engine.
          (s.assignment, s.prices, s.clicks, s.revenue, s.spend_snapshot))
      summaries
  in
  Alcotest.(check string) "summary digest" digest
    (Digest.to_hex (Digest.string (Marshal.to_string rows [])));
  List.iter
    (fun (name, expected) ->
      match Essa_obs.Registry.find metrics name with
      | Some (Essa_obs.Registry.Counter c) ->
          Alcotest.(check int) name expected (Essa_obs.Counter.value c)
      | _ -> Alcotest.failf "%s missing" name)
    counters

(* Dense partitioned RHTALU through [run_partitioned]: the first, third
   and fifth 500-query stretches run in arrival order; in the others each
   window of 8 queries is regrouped by keyword. *)
let test_bench_scale_partitioned_pin () =
  let w = bench_scale_workload () in
  let metrics = Essa_obs.Registry.create () in
  let engine =
    Essa_sim.Workload.make_engine ~metrics ~partitioned:true ~cache:false
      ~update_every:1 ~mechanism:`Classic w ~method_:`Rhtalu
  in
  let q = Essa_sim.Workload.queries w ~seed:2 ~count:3000 in
  let out = ref [] in
  let run kw = out := Essa.Engine.run_partitioned engine ~keyword:kw :: !out in
  let i = ref 0 in
  while !i < Array.length q do
    if !i / 500 mod 2 = 0 then begin
      run q.(!i);
      incr i
    end
    else begin
      let window = Array.sub q !i (min 8 (Array.length q - !i)) in
      List.iter
        (fun kw -> Array.iter (fun k -> if k = kw then run kw) window)
        (List.sort_uniq compare (Array.to_list window));
      i := !i + Array.length window
    end
  done;
  check_scale_pin ~digest:"0be85351cc659537957352c0baa4d2ed"
    ~counters:
      [
        ("essa.ta.sorted_accesses", 5060003);
        ("essa.ta.random_accesses", 10151809);
        ("essa.ta.seen_objects", 4899681);
        ("essa.reduction.candidates", 179227);
      ]
    metrics
    (Array.of_list (List.rev !out))

(* Serial RHTALU: the [Logical] fleet on one global clock. *)
let test_bench_scale_serial_pin () =
  let w = bench_scale_workload () in
  let metrics = Essa_obs.Registry.create () in
  let engine =
    Essa_sim.Workload.make_engine ~metrics ~cache:false ~update_every:1
      ~mechanism:`Classic w ~method_:`Rhtalu
  in
  let summaries =
    Array.map
      (fun kw -> Essa.Engine.run_auction engine ~keyword:kw)
      (Essa_sim.Workload.queries w ~seed:3 ~count:2000)
  in
  check_scale_pin ~digest:"7927ff599411018fb006f0aac567a21a"
    ~counters:
      [
        ("essa.ta.sorted_accesses", 3415293);
        ("essa.ta.random_accesses", 6822439);
        ("essa.ta.seen_objects", 3299104);
        ("essa.reduction.candidates", 122446);
      ]
    metrics summaries

let () =
  Alcotest.run "essa_strategy"
    [
      ( "roi_state",
        [
          Alcotest.test_case "defaults" `Quick test_roi_state_defaults;
          Alcotest.test_case "validation" `Quick test_roi_state_validation;
          Alcotest.test_case "underspending increments" `Quick test_roi_underspending_increments;
          Alcotest.test_case "capped at maxbid" `Quick test_roi_increment_capped_at_maxbid;
          Alcotest.test_case "overspending decrements" `Quick test_roi_overspending_decrements;
          Alcotest.test_case "floored at zero" `Quick test_roi_decrement_floored_at_zero;
          Alcotest.test_case "at target stays" `Quick test_roi_at_target_stays;
          Alcotest.test_case "pay per click" `Quick test_roi_unclicked_win_costs_nothing;
          Alcotest.test_case "roi accounting" `Quick test_roi_roi_accounting;
          Alcotest.test_case "classify matrix" `Quick test_roi_classify_matrix;
          Alcotest.test_case "budget exhaustion" `Quick test_roi_budget_exhaustion;
          Alcotest.test_case "budget validation" `Quick test_roi_budget_validation;
        ] );
      ( "adjustment_list",
        [
          Alcotest.test_case "bulk adjust" `Quick test_adjustment_list;
          Alcotest.test_case "seq snapshot" `Quick test_adjustment_list_seq_snapshot;
          prop_adjustment_list_matches_reference;
          Alcotest.test_case "negative id rejected" `Quick
            test_adjustment_list_rejects_negative_id;
        ] );
      ( "sql_program",
        [
          Alcotest.test_case "Fig. 4 -> Fig. 6" `Quick test_fig5_program_produces_fig6;
          Alcotest.test_case "ROI gate" `Quick test_fig5_roi_gate;
          Alcotest.test_case "validation" `Quick test_sql_program_validation;
          Alcotest.test_case "listing" `Quick test_sql_listing_mentions_fig5_shape;
          prop_sql_simple_equals_native;
        ] );
      ( "roi_fleet",
        [
          prop_fleet_three_way_equivalence;
          prop_fleet_four_way_with_sql;
          prop_fleet_equivalence_integer_boundaries;
          Alcotest.test_case "sql rejects budgets" `Quick test_fleet_sql_rejects_budgets;
          prop_fleet_equivalence_with_budgets;
          prop_bid_index_matches_resort;
          prop_bids_desc_cross_strategy;
          Alcotest.test_case "bound + spend-rate triggers" `Quick test_fleet_logical_bound_edges;
          Alcotest.test_case "keyword isolation" `Quick test_fleet_keyword_isolation;
          Alcotest.test_case "interface guards" `Quick test_fleet_interface_guards;
        ] );
      ( "partitioned_fleet",
        [
          prop_partitioned_two_way_equivalence;
          Alcotest.test_case "deferred budget retirement" `Quick
            test_partitioned_deferred_retirement;
          Alcotest.test_case "interface guards" `Quick
            test_partitioned_interface_guards;
        ] );
      ( "flat_store",
        [
          prop_flat_equals_dense_churn;
          prop_flat_equals_dense_budgets;
          Alcotest.test_case "free-list reuse and growth" `Quick
            test_flat_free_list;
          Alcotest.test_case "lazy budget retirement" `Quick
            test_flat_budget_retirement;
          Alcotest.test_case "interface guards" `Quick
            test_flat_interface_guards;
        ] );
      ( "epoch",
        [
          prop_epoch_stability_serial;
          prop_epoch_stability_partitioned;
          Alcotest.test_case "flat mutation paths bump" `Quick
            test_epoch_bumps_flat;
          Alcotest.test_case "flat lazy retirement bumps" `Quick
            test_epoch_bumps_flat_budget_retirement;
          Alcotest.test_case "churn tick bumps" `Quick
            test_epoch_bumps_churn_tick;
          Alcotest.test_case "bulk adjustment bumps" `Quick
            test_epoch_bumps_dense_adjustment;
        ] );
      ( "ramp_fleet",
        [
          Alcotest.test_case "bid formula" `Quick test_ramp_bid_formula;
          Alcotest.test_case "win updates remaining" `Quick test_ramp_win_updates_remaining;
          Alcotest.test_case "validation" `Quick test_ramp_validation;
          prop_ramp_ta_equals_naive;
          Alcotest.test_case "sublinear on skew" `Quick test_ramp_ta_sublinear_on_skew;
        ] );
      ( "section_iv_scale",
        [
          Alcotest.test_case "partitioned RHTALU pin" `Quick
            test_bench_scale_partitioned_pin;
          Alcotest.test_case "serial RHTALU pin" `Quick
            test_bench_scale_serial_pin;
        ] );
    ]
