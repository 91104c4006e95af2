(* Tests for the keyword-sharded serving pipeline (essa_serve): the
   commit order, backpressure, the batch-tag and engine rules, metrics,
   load-aware lanes, the serial golden pin and the load generators.  The
   served = serial and replay-contract cells across shapes, mechanisms
   and worker counts live in test_scenarios.ml. *)

open Essa_serve

(* ------------------------------------------------------------------ *)
(* Commit order *)

(* Per-keyword FIFO: keyword [kw]'s commit log holds exactly its
   arrivals, on its own clock 1, 2, 3, ... *)
let check_fifo server queries =
  Array.iteri
    (fun kw log ->
      let arrivals =
        Array.fold_left (fun n k -> if k = kw then n + 1 else n) 0 queries
      in
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "keyword %d: its arrivals, in clock order" kw)
        (List.init arrivals (fun i -> (i + 1, kw)))
        (List.map
           (fun (s : Essa.Engine.summary) -> (s.auction_time, s.keyword))
           log))
    (Test_harness.logs server)

let test_commit_order_and_fifo () =
  let workload =
    Essa_sim.Workload.section5 ~seed:31 ~n:30 ~k:3 ~num_keywords:5 ()
  in
  let queries = Essa_sim.Workload.queries workload ~seed:32 ~count:120 in
  let engine =
    Essa_sim.Workload.make_engine ~partitioned:true workload ~method_:`Rhtalu
  in
  let server, _ = Test_harness.serve ~workers:3 ~max_batch:5 ~engine queries in
  check_fifo server queries

(* The ledger counts per keyword and in total, rejects a bad keyword, and
   a waiter blocked in [wait_until] wakes when another domain's commits
   reach its count.  The waiter gets 10 s: a lost wakeup fails the test
   instead of hanging it (the blocked domain is left behind). *)
let test_commit_ledger_protocol () =
  Alcotest.check_raises "no keywords"
    (Invalid_argument "Commit_ledger.create: num_keywords < 1") (fun () ->
      ignore (Commit_ledger.create ~num_keywords:0));
  let ledger = Commit_ledger.create ~num_keywords:3 in
  Commit_ledger.wait_until ledger ~count:0 (* already reached: returns *);
  Alcotest.check_raises "commit on a bad keyword"
    (Invalid_argument "Commit_ledger.commit: keyword 3") (fun () ->
      Commit_ledger.commit ledger ~keyword:3);
  Alcotest.check_raises "count of a bad keyword"
    (Invalid_argument "Commit_ledger.keyword_count: keyword -1") (fun () ->
      ignore (Commit_ledger.keyword_count ledger ~keyword:(-1)));
  let woke = Atomic.make false in
  let waiter =
    Domain.spawn (fun () ->
        Commit_ledger.wait_until ledger ~count:3;
        Atomic.set woke true)
  in
  Unix.sleepf 0.005;
  List.iter (fun keyword -> Commit_ledger.commit ledger ~keyword) [ 0; 1; 0 ];
  let deadline = Unix.gettimeofday () +. 10. in
  while (not (Atomic.get woke)) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.001
  done;
  if not (Atomic.get woke) then Alcotest.fail "waiter not woken by the commits";
  Domain.join waiter;
  Alcotest.(check int) "total" 3 (Commit_ledger.total ledger);
  Alcotest.(check (list int)) "per keyword" [ 2; 1; 0 ]
    (List.init 3 (fun keyword -> Commit_ledger.keyword_count ledger ~keyword))

let test_shard_partition () =
  let q seq keyword : Ingress.query = { seq; keyword; enqueue_ns = 0L } in
  let batch = [ q 0 4; q 1 1; q 2 4; q 3 0; q 4 3 ] in
  let lanes = Shard.partition ~shards:3 batch in
  let seqs lane = List.map (fun (x : Ingress.query) -> x.seq) lane in
  Alcotest.(check (list int)) "lane 0 (kw 0,3)" [ 3; 4 ] (seqs lanes.(0));
  Alcotest.(check (list int)) "lane 1 (kw 1,4)" [ 0; 1; 2 ] (seqs lanes.(1));
  Alcotest.(check (list int)) "lane 2 (empty)" [] (seqs lanes.(2));
  Alcotest.check_raises "shards < 1"
    (Invalid_argument "Shard.of_keyword: shards < 1") (fun () ->
      ignore (Shard.of_keyword ~shards:0 1))

(* ------------------------------------------------------------------ *)
(* Backpressure *)

let test_ingress_bounded_and_shedding () =
  let registry = Essa_obs.Registry.create () in
  let ingress = Ingress.create ~metrics:registry ~capacity:4 () in
  let outcomes = List.init 6 (fun kw -> Ingress.submit ingress ~keyword:kw) in
  Alcotest.(check int) "accepted" 4 (Ingress.accepted ingress);
  Alcotest.(check int) "shed" 2 (Ingress.shed ingress);
  Alcotest.(check int) "depth" 4 (Ingress.depth ingress);
  Alcotest.(check bool) "sequence numbers are arrival order" true
    (outcomes
    = [
        Ingress.Accepted 0;
        Accepted 1;
        Accepted 2;
        Accepted 3;
        Shed;
        Shed;
      ]);
  (* The metrics are live, not derived at read time. *)
  (match Essa_obs.Registry.find registry "essa.serve.queue_depth" with
  | Some (Essa_obs.Registry.Gauge g) ->
      Alcotest.(check (float 1e-9)) "depth gauge" 4.0 (Essa_obs.Gauge.value g)
  | _ -> Alcotest.fail "queue_depth gauge not registered");
  (match Essa_obs.Registry.find registry "essa.serve.shed" with
  | Some (Essa_obs.Registry.Counter c) ->
      Alcotest.(check int) "shed counter" 2 (Essa_obs.Counter.value c)
  | _ -> Alcotest.fail "shed counter not registered");
  let drained = Ingress.drain ingress ~max:3 in
  Alcotest.(check (list int)) "FIFO drain"
    [ 0; 1; 2 ]
    (List.map (fun (q : Ingress.query) -> q.keyword) drained);
  Alcotest.(check int) "one left" 1 (Ingress.depth ingress);
  Ingress.close ingress;
  (* Closed is its own outcome, not a shed: shutdown must not read as
     overload (and clients must not retry it). *)
  Alcotest.(check bool) "closed rejects as Closed" true
    (Ingress.submit ingress ~keyword:0 = Closed);
  Alcotest.(check int) "shed unchanged by close" 2 (Ingress.shed ingress);
  Alcotest.(check int) "rejected_closed" 1 (Ingress.rejected_closed ingress);
  (match Essa_obs.Registry.find registry "essa.serve.rejected_closed" with
  | Some (Essa_obs.Registry.Counter c) ->
      Alcotest.(check int) "rejected_closed counter" 1
        (Essa_obs.Counter.value c)
  | _ -> Alcotest.fail "rejected_closed counter not registered");
  Alcotest.(check int) "drain remainder" 1 (List.length (Ingress.drain ingress ~max:8));
  Alcotest.(check (list int)) "drain after close: empty" []
    (List.map (fun (q : Ingress.query) -> q.seq) (Ingress.drain ingress ~max:8))

let test_server_overrun_sheds () =
  (* Overrun the bounded queue: a tiny capacity and a tight submission
     loop must shed, and everything accepted must still commit. *)
  let workload =
    Essa_sim.Workload.section5 ~seed:41 ~n:400 ~k:5 ~num_keywords:4 ()
  in
  let engine =
    Essa_sim.Workload.make_engine ~partitioned:true workload ~method_:`Rh
  in
  let registry = Essa_obs.Registry.create () in
  let server =
    Server.create ~metrics:registry ~workers:2 ~queue_capacity:2 ~max_batch:2
      ~engine ()
  in
  let offered = 300 in
  let queries = Essa_sim.Workload.queries workload ~seed:42 ~count:offered in
  Array.iter (fun kw -> ignore (Server.submit server ~keyword:kw)) queries;
  let stats = Server.stop server in
  Alcotest.(check int) "nothing lost" offered (stats.accepted + stats.shed);
  Alcotest.(check bool) "overrun shed something" true (stats.shed > 0);
  Alcotest.(check bool) "something was served" true (stats.committed > 0);
  Alcotest.(check int) "accepted = committed" stats.accepted stats.committed;
  Alcotest.(check int) "engine ran exactly the accepted queries"
    stats.accepted
    (Essa.Engine.auctions_run engine);
  (match Essa_obs.Registry.find registry "essa.serve.shed" with
  | Some (Essa_obs.Registry.Counter c) ->
      Alcotest.(check int) "shed counter agrees" stats.shed
        (Essa_obs.Counter.value c)
  | _ -> Alcotest.fail "shed counter not registered");
  (match Essa_obs.Registry.find registry "essa.serve.commit_latency_ns" with
  | Some (Essa_obs.Registry.Histogram h) ->
      Alcotest.(check int) "latency histogram covers every commit"
        stats.committed (Essa_obs.Histogram.count h)
  | _ -> Alcotest.fail "commit latency histogram not registered")

let test_submit_bad_keyword () =
  let workload = Essa_sim.Workload.section5 ~seed:43 ~n:10 ~k:2 ~num_keywords:3 () in
  let engine =
    Essa_sim.Workload.make_engine ~partitioned:true workload ~method_:`Rh
  in
  let server = Server.create ~workers:1 ~engine () in
  Alcotest.check_raises "bad keyword is an error, not shed"
    (Invalid_argument "Server.submit: keyword 3") (fun () ->
      ignore (Server.submit server ~keyword:3));
  ignore (Server.stop server)

(* ------------------------------------------------------------------ *)
(* Partitioned engines *)

(* Budgeted advertisers but no brand premiums: every budget invariant in
   the replay report is exercised with no premium carve-out in play. *)
let pk_workload seed =
  Essa_sim.Workload.section5 ~seed ~n:40 ~k:4 ~num_keywords:6
    ~budgeted_fraction:0.4 ~brand_fraction:0. ()

(* A serial engine is the scenario table's abort row; a partitioned one
   builds, drains and logs every keyword in FIFO order. *)
let test_commit_mode_pairing () =
  let workload = pk_workload 65 in
  let queries = Essa_sim.Workload.queries workload ~seed:66 ~count:60 in
  let engine =
    Essa_sim.Workload.make_engine ~partitioned:true workload ~method_:`Rh
  in
  let server, stats =
    Test_harness.serve ~workers:2 ~max_batch:4 ~engine queries
  in
  Alcotest.(check int) "all committed" 60 stats.committed;
  check_fifo server queries;
  Alcotest.check_raises "bad keyword"
    (Invalid_argument "Server.commit_log: keyword 6") (fun () ->
      ignore (Server.commit_log server ~keyword:6))

(* [on_commit] runs concurrently from the lanes, yet each keyword's
   callbacks arrive once per commit in its FIFO order: what a callback
   sees of a keyword is exactly that keyword's commit log. *)
let test_on_commit_per_keyword () =
  let workload = pk_workload 69 in
  let queries = Essa_sim.Workload.queries workload ~seed:70 ~count:90 in
  let engine =
    Essa_sim.Workload.make_engine ~partitioned:true workload ~method_:`Rhtalu
  in
  let seen = Array.make (Essa.Engine.num_keywords engine) []
  and lock = Mutex.create () in
  let on_commit (s : Essa.Engine.summary) =
    Mutex.protect lock (fun () -> seen.(s.keyword) <- s :: seen.(s.keyword))
  in
  let server =
    Server.create ~on_commit ~workers:3 ~max_batch:4 ~queue_capacity:90
      ~engine ()
  in
  Array.iter
    (fun keyword ->
      match Server.submit server ~keyword with
      | Ingress.Accepted _ -> ()
      | Ingress.Shed | Ingress.Closed -> Alcotest.fail "unexpected rejection")
    queries;
  let stats = Server.stop server in
  Alcotest.(check int) "all committed" 90 stats.committed;
  check_fifo server queries;
  Array.iteri
    (fun kw log ->
      Alcotest.(check bool)
        (Printf.sprintf "keyword %d: callbacks = commit log" kw)
        true
        (List.map Test_harness.strip (List.rev seen.(kw))
        = List.map Test_harness.strip log))
    (Test_harness.logs server)

(* A batch is a keyword tag with no effect on the auction, but misuse is
   still an error, not a silent wrong answer. *)
let test_batch_misuse () =
  let workload = pk_workload 67 in
  let serial = Essa_sim.Workload.make_engine workload ~method_:`Rh in
  Alcotest.check_raises "batch_start on a serial engine"
    (Invalid_argument "Engine.batch_start: serial engine") (fun () ->
      ignore (Essa.Engine.batch_start serial ~keyword:0));
  let engine =
    Essa_sim.Workload.make_engine ~partitioned:true workload ~method_:`Rh
  in
  let wrong = Essa.Engine.batch_start engine ~keyword:1 in
  Alcotest.check_raises "batch for another keyword"
    (Invalid_argument "Engine.run_partitioned: batch is for keyword 1")
    (fun () ->
      ignore (Essa.Engine.run_partitioned ~batch:wrong engine ~keyword:0))

(* A batch tag changes nothing: 12 auctions of keyword 0 run under two
   tags split at every point = the untagged run, summary for summary,
   and the final states match.  The flat churn engine is the one where a
   snapshot shared across a batch once let an auction read a re-enrolled
   slot's previous occupant. *)
let batch_tag_inert make () =
  let keyword = 0 and m = 12 in
  let reference = make () in
  let expect =
    List.init m (fun _ -> Essa.Engine.run_partitioned reference ~keyword)
  in
  for p = 0 to m do
    let engine = make () in
    let b1 = Essa.Engine.batch_start engine ~keyword
    and b2 = Essa.Engine.batch_start engine ~keyword in
    List.iteri
      (fun i want ->
        let batch = if i < p then b1 else b2 in
        Alcotest.(check bool)
          (Printf.sprintf "split at %d, auction %d = untagged" p i)
          true
          (Essa.Engine.run_partitioned ~batch engine ~keyword = want))
      expect;
    Alcotest.(check bool)
      (Printf.sprintf "split at %d: final state" p)
      true
      (Test_harness.fingerprint engine = Test_harness.fingerprint reference)
  done

let dense_tagged method_ () =
  Essa_sim.Workload.make_engine ~partitioned:true ~cache:true (pk_workload 67)
    ~method_

let flat_churn_tagged () =
  let u =
    Essa_sim.Workload.universe ~max_keywords_per_adv:3 ~budgeted_fraction:0.25
      ~keywords:5 ~n:40 ~zipf_s:1.0 ~seed:1 ()
  in
  Essa_sim.Workload.make_flat_engine ~cache:true u
    ~store:(Essa_sim.Workload.universe_store ~churn:0.2 u ())

(* ------------------------------------------------------------------ *)
(* Metrics correctness *)

let test_latency_clock_seam () =
  (* The server stamps enqueue times and commit latencies with ONE
     injectable clock ([Server.create ?clock], threaded into Ingress).
     Drive it with a deterministic step clock: every latency is then a
     small multiple of the step, bounded by the total number of clock
     calls.  If either end of the measurement fell back to the wall
     clock (the old bug: commit read [Timing.now_ns] against an injected
     enqueue stamp), the latency would be ~10^18 ns and blow the bound. *)
  let n_queries = 40 in
  let step = 1_000L in
  let tick = Atomic.make 0 in
  let clock () = Int64.mul (Int64.of_int (Atomic.fetch_and_add tick 1)) step in
  let workload = pk_workload 69 in
  let engine =
    Essa_sim.Workload.make_engine ~partitioned:true workload ~method_:`Rhtalu
  in
  let metrics = Essa_obs.Registry.create () in
  let server = Server.create ~metrics ~clock ~workers:1 ~engine () in
  for _ = 1 to n_queries do
    match Server.submit server ~keyword:0 with
    | Ingress.Accepted _ -> ()
    | Ingress.Shed | Ingress.Closed -> Alcotest.fail "unexpected rejection"
  done;
  let stats = Server.stop server in
  Alcotest.(check int) "all committed" n_queries stats.committed;
  let hist name registry =
    match Essa_obs.Registry.find registry name with
    | Some (Essa_obs.Registry.Histogram h) -> h
    | _ -> Alcotest.failf "missing histogram %s" name
  in
  let lat = hist "essa.serve.commit_latency_ns" metrics in
  Alcotest.(check int)
    "one queue-latency sample per commit" n_queries
    (Essa_obs.Histogram.count lat);
  (match Essa_obs.Histogram.min_max lat with
  | None -> Alcotest.fail "empty latency histogram"
  | Some (min_ns, max_ns) ->
      Alcotest.(check bool) "latencies non-negative" true (min_ns >= 0);
      (* The clock ticks once per enqueue and once per commit stamp:
         every latency is < total-calls * step. *)
      Alcotest.(check bool)
        "latencies come from the injected clock" true
        (max_ns <= (2 * n_queries * Int64.to_int step)));
  (* Service time is the engine's own measurement, in the engine's own
     registry — distinct from the server's queue latency. *)
  let svc = hist "essa.auction.total_ns" (Essa.Engine.metrics engine) in
  Alcotest.(check int)
    "one service-time sample per auction" n_queries
    (Essa_obs.Histogram.count svc)

let test_imbalance_from_executed () =
  (* A degraded lane blind-commits without executing: committed counts
     then read as balanced exactly when one lane has stopped working.
     The primary imbalance gauge must therefore come from EXECUTED
     counts; the committed-side spread is published separately. *)
  let metrics = Essa_obs.Registry.create () in
  let tr = Shard.tracker ~metrics ~shards:2 in
  for _ = 1 to 10 do
    (* lane 0 works and commits; lane 1 only blind-commits *)
    Shard.note_executed tr ~lane:0;
    Shard.note_committed tr ~lane:0;
    Shard.note_committed tr ~lane:1
  done;
  Alcotest.(check (array int)) "executed counts" [| 10; 0 |]
    (Shard.executed_counts tr);
  Alcotest.(check (array int)) "committed counts" [| 10; 10 |]
    (Shard.committed_counts tr);
  Alcotest.(check (float 1e-9)) "refresh returns executed spread" 1.0
    (Shard.refresh_imbalance tr);
  let gauge name =
    match Essa_obs.Registry.find metrics name with
    | Some (Essa_obs.Registry.Gauge g) -> Essa_obs.Gauge.value g
    | _ -> Alcotest.failf "missing gauge %s" name
  in
  Alcotest.(check (float 1e-9))
    "primary gauge = executed spread" 1.0
    (gauge "essa.serve.lane_imbalance");
  Alcotest.(check (float 1e-9))
    "committed spread published separately" 0.0
    (gauge "essa.serve.lane_imbalance_committed")

let test_imbalance_epoch_fold_migration () =
  (* Regression: the spread must fold per-epoch executed DELTAS, not
     cumulative totals.  Force the pathological migration: a hot keyword
     (100 executions/epoch) ping-pongs between the two lanes at every
     rebalance boundary.  Cumulatively each lane ends with the same total
     — the migrated keyword's work is counted on both sides — so the old
     cumulative spread reads 0.0 (perfectly balanced) even though every
     single epoch ran maximally skewed. *)
  let metrics = Essa_obs.Registry.create () in
  let tr = Shard.tracker ~metrics ~shards:2 in
  for epoch = 0 to 3 do
    let lane = epoch mod 2 in
    for _ = 1 to 100 do
      Shard.note_executed tr ~lane;
      Shard.note_committed tr ~lane
    done;
    Shard.fold_epoch tr
  done;
  Alcotest.(check (float 1e-9))
    "cumulative totals hide the skew" 0.0
    (Shard.imbalance_of (Shard.executed_counts tr));
  Alcotest.(check (float 1e-9))
    "per-epoch fold reports it" 1.0 (Shard.refresh_imbalance tr);
  let gauge name =
    match Essa_obs.Registry.find metrics name with
    | Some (Essa_obs.Registry.Gauge g) -> Essa_obs.Gauge.value g
    | _ -> Alcotest.failf "missing gauge %s" name
  in
  Alcotest.(check (float 1e-9))
    "gauge carries the per-epoch spread" 1.0
    (gauge "essa.serve.lane_imbalance");
  (* An idle fold (no executions since the last boundary) must not decay
     the EWMA toward 0 — refresh after quiet folds still reports 1.0. *)
  Shard.fold_epoch tr;
  Shard.fold_epoch tr;
  Alcotest.(check (float 1e-9))
    "idle epochs don't decay the spread" 1.0
    (Shard.refresh_imbalance tr);
  (* Balanced epochs fold the EWMA back down. *)
  for _ = 1 to 8 do
    for _ = 1 to 50 do
      Shard.note_executed tr ~lane:0;
      Shard.note_executed tr ~lane:1
    done;
    Shard.fold_epoch tr
  done;
  Alcotest.(check bool) "balanced epochs pull the EWMA down" true
    (Shard.refresh_imbalance tr < 0.1);
  (* A runt final epoch (a handful of executions against a ~100/epoch
     history) is multinomial noise, not signal: even a maximally skewed
     runt must not yank the EWMA. *)
  let before = Shard.refresh_imbalance tr in
  for _ = 1 to 3 do Shard.note_executed tr ~lane:0 done;
  Alcotest.(check (float 1e-9))
    "runt partial epoch is skipped" before
    (Shard.refresh_imbalance tr)

let test_imbalance_all_zero () =
  (* Regression: before any lane has executed anything, the spread is a
     clean 0.0 — never NaN from the 0/0 division. *)
  Alcotest.(check (float 1e-9)) "all-zero counts" 0.0
    (Shard.imbalance_of [| 0; 0; 0 |]);
  Alcotest.(check (float 1e-9)) "single lane" 0.0 (Shard.imbalance_of [| 7 |]);
  Alcotest.(check (float 1e-9)) "empty" 0.0 (Shard.imbalance_of [||]);
  let metrics = Essa_obs.Registry.create () in
  let tr = Shard.tracker ~metrics ~shards:3 in
  let v = Shard.refresh_imbalance tr in
  Alcotest.(check bool) "refresh finite on idle tracker" true
    (Float.is_finite v);
  Alcotest.(check (float 1e-9)) "refresh 0.0 on idle tracker" 0.0 v;
  let gauge name =
    match Essa_obs.Registry.find metrics name with
    | Some (Essa_obs.Registry.Gauge g) -> Essa_obs.Gauge.value g
    | _ -> Alcotest.failf "missing gauge %s" name
  in
  Alcotest.(check (float 1e-9)) "gauge 0.0, not NaN" 0.0
    (gauge "essa.serve.lane_imbalance")

(* ------------------------------------------------------------------ *)
(* Load-aware keyword→lane map *)

let test_shard_map_rebalance () =
  let m = Shard.map_create ~shards:2 ~num_keywords:4 () in
  for kw = 0 to 3 do
    Alcotest.(check int) "modulo init" (kw mod 2) (Shard.map_lane m ~keyword:kw)
  done;
  Alcotest.(check int) "no rebalances yet" 0 (Shard.map_rebalances m);
  (* Keywords 0 and 2 carry all the load; the modulo map parks both on
     lane 0.  One rebalance must split them across the two lanes. *)
  for _ = 1 to 100 do
    Shard.map_note m ~keyword:0;
    Shard.map_note m ~keyword:2
  done;
  Shard.map_rebalance m;
  Alcotest.(check int) "one rebalance" 1 (Shard.map_rebalances m);
  Alcotest.(check bool) "hot keywords split across lanes" true
    (Shard.map_lane m ~keyword:0 <> Shard.map_lane m ~keyword:2);
  (* Zero-EWMA keywords keep their (modulo) lane. *)
  Alcotest.(check int) "idle keyword 1 keeps its lane" 1
    (Shard.map_lane m ~keyword:1);
  Alcotest.(check int) "idle keyword 3 keeps its lane" 1
    (Shard.map_lane m ~keyword:3);
  (* partition_map groups by the live assignment and preserves arrival
     order within each lane. *)
  let q seq keyword = Ingress.{ seq; keyword; enqueue_ns = 0L } in
  let batch = [ q 0 0; q 1 2; q 2 0; q 3 1 ] in
  let parts = Shard.partition_map m batch in
  Alcotest.(check int) "two lanes" 2 (Array.length parts);
  let lane_of kw = Shard.map_lane m ~keyword:kw in
  List.iter
    (fun (qq : Ingress.query) ->
      if not (List.memq qq parts.(lane_of qq.keyword)) then
        Alcotest.failf "query %d not on its keyword's lane" qq.seq)
    batch;
  Array.iter
    (fun lane ->
      let seqs = List.map (fun (qq : Ingress.query) -> qq.seq) lane in
      if List.sort compare seqs <> seqs then
        Alcotest.fail "lane work list out of arrival order")
    parts;
  (* Validation. *)
  let raises f =
    match f () with exception Invalid_argument _ -> true | _ -> false
  in
  Alcotest.(check bool) "bad alpha" true
    (raises (fun () ->
         Shard.map_create ~alpha:0.0 ~shards:2 ~num_keywords:4 ()));
  Alcotest.(check bool) "bad shards" true
    (raises (fun () -> Shard.map_create ~shards:0 ~num_keywords:4 ()))

(* ------------------------------------------------------------------ *)
(* Serial golden pin *)

(* A pinned fingerprint of the paper's serial auction loop on a fixed
   workload: any change to the engine or strategy that perturbs the
   serial stream moves this hash, so it pins the seed behaviour itself. *)
let golden_hash summaries =
  let mix h x = ((h * 1000003) lxor x) land 0x3FFFFFFF in
  List.fold_left
    (fun h (t, kw, assign, prices, clicks, rev, _) ->
      let h = mix (mix h t) kw in
      let h =
        Array.fold_left
          (fun h a -> mix h (match a with Some adv -> adv + 1 | None -> 0))
          h assign
      in
      let h = Array.fold_left mix h prices in
      let h =
        Array.fold_left (fun h c -> mix h (if c then 1 else 0)) h clicks
      in
      mix h rev)
    0x9E3779 summaries

let golden_pin ~method_ ~expected () =
  let workload =
    Essa_sim.Workload.section5 ~seed:71 ~n:40 ~k:4 ~num_keywords:6
      ~brand_fraction:0.25 ~budgeted_fraction:0.25 ()
  in
  let queries = Essa_sim.Workload.queries workload ~seed:72 ~count:300 in
  let engine = Essa_sim.Workload.make_engine workload ~method_ in
  let summaries =
    Array.to_list
      (Array.map
         (fun kw ->
           Test_harness.strip (Essa.Engine.run_auction engine ~keyword:kw))
         queries)
  in
  Alcotest.(check int) "pinned serial-stream hash" expected
    (golden_hash summaries)

(* `Rh and `Rhtalu are two algorithms for the same auction: identical
   streams, hence the same pin. *)
let test_golden_pin_rh = golden_pin ~method_:`Rh ~expected:541801493
let test_golden_pin_rhtalu = golden_pin ~method_:`Rhtalu ~expected:541801493

(* ------------------------------------------------------------------ *)
(* Load generators *)

let test_closed_loop_never_sheds () =
  let workload =
    Essa_sim.Workload.section5 ~seed:51 ~n:30 ~k:3 ~num_keywords:4 ()
  in
  let engine =
    Essa_sim.Workload.make_engine ~partitioned:true workload ~method_:`Rhtalu
  in
  let server = Server.create ~workers:2 ~queue_capacity:8 ~max_batch:4 ~engine () in
  let report =
    Load_gen.closed_loop server
      ~keywords:(Essa_sim.Workload.query_stream workload ~seed:52)
      ~total:60 ~window:4 ()
  in
  let stats = Server.stop server in
  Alcotest.(check int) "offered" 60 report.offered;
  Alcotest.(check int) "accepted all" 60 report.accepted;
  Alcotest.(check int) "shed none" 0 report.shed;
  Alcotest.(check int) "committed all" 60 stats.committed;
  Alcotest.(check bool) "throughput measured" true (report.throughput_per_s > 0.0)

let test_open_loop_counts () =
  let workload =
    Essa_sim.Workload.section5 ~seed:53 ~n:30 ~k:3 ~num_keywords:4 ()
  in
  let engine =
    Essa_sim.Workload.make_engine ~partitioned:true workload ~method_:`Rhtalu
  in
  let server = Server.create ~workers:2 ~queue_capacity:64 ~max_batch:8 ~engine () in
  let report =
    Load_gen.open_loop server
      ~keywords:(Essa_sim.Workload.query_stream workload ~seed:54)
      ~offered:50 ()
  in
  let stats = Server.stop server in
  Alcotest.(check int) "offered" 50 report.offered;
  Alcotest.(check int) "accounted" 50 (report.accepted + report.shed);
  Alcotest.(check int) "accepted all committed" report.accepted stats.committed

let load_gen_server () =
  let workload =
    Essa_sim.Workload.section5 ~seed:55 ~n:20 ~k:3 ~num_keywords:3 ()
  in
  let engine =
    Essa_sim.Workload.make_engine ~partitioned:true workload ~method_:`Rhtalu
  in
  (workload, Server.create ~workers:1 ~queue_capacity:16 ~max_batch:4 ~engine ())

let rejected f = match f () with exception Invalid_argument _ -> true | _ -> false

(* Bad arguments are rejected before anything is submitted; a keyword
   stream that runs dry mid-run is an error, and what it did submit
   still commits. *)
let test_open_loop_validation () =
  let workload, server = load_gen_server () in
  let keywords = Essa_sim.Workload.query_stream workload ~seed:56 in
  Alcotest.(check bool) "offered < 0" true
    (rejected (fun () -> Load_gen.open_loop server ~keywords ~offered:(-1) ()));
  Alcotest.(check bool) "rate 0" true
    (rejected (fun () ->
         Load_gen.open_loop server ~keywords ~offered:5 ~rate_per_s:0.0 ()));
  Alcotest.(check bool) "negative rate" true
    (rejected (fun () ->
         Load_gen.open_loop server ~keywords ~offered:5 ~rate_per_s:(-2.0) ()));
  Alcotest.(check int) "nothing submitted" 0 (Server.accepted server);
  Alcotest.(check bool) "keyword stream shorter than offered" true
    (rejected (fun () ->
         Load_gen.open_loop server ~keywords:(List.to_seq [ 0; 1; 2 ])
           ~offered:4 ()));
  let stats = Server.stop server in
  Alcotest.(check int) "the three submitted queries commit" 3 stats.committed

let test_closed_loop_validation () =
  let workload, server = load_gen_server () in
  let keywords = Essa_sim.Workload.query_stream workload ~seed:57 in
  Alcotest.(check bool) "total < 0" true
    (rejected (fun () -> Load_gen.closed_loop server ~keywords ~total:(-1) ()));
  Alcotest.(check bool) "window 0" true
    (rejected (fun () ->
         Load_gen.closed_loop server ~keywords ~total:5 ~window:0 ()));
  let report = Load_gen.closed_loop server ~keywords ~total:0 () in
  Alcotest.(check int) "total 0 offers nothing" 0 report.offered;
  Alcotest.(check bool) "keyword stream shorter than total" true
    (rejected (fun () ->
         Load_gen.closed_loop server ~keywords:(List.to_seq [ 2; 0 ])
           ~total:3 ~window:2 ()));
  let stats = Server.stop server in
  Alcotest.(check int) "the two submitted queries commit" 2 stats.committed

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "essa_serve"
    [
      ( "commit",
        [
          Alcotest.test_case "arrival order + FIFO" `Quick
            test_commit_order_and_fifo;
          Alcotest.test_case "commit ledger protocol" `Quick
            test_commit_ledger_protocol;
          Alcotest.test_case "shard partition" `Quick test_shard_partition;
        ] );
      ( "backpressure",
        [
          Alcotest.test_case "bounded ingress sheds" `Quick
            test_ingress_bounded_and_shedding;
          Alcotest.test_case "server overrun sheds" `Quick
            test_server_overrun_sheds;
          Alcotest.test_case "bad keyword" `Quick test_submit_bad_keyword;
        ] );
      ( "per-keyword",
        [
          Alcotest.test_case "commit-mode pairing" `Quick
            test_commit_mode_pairing;
          Alcotest.test_case "on_commit per keyword = commit log" `Quick
            test_on_commit_per_keyword;
          Alcotest.test_case "batch misuse rejected" `Quick test_batch_misuse;
          Alcotest.test_case "batch tag changes nothing (rh)" `Quick
            (batch_tag_inert (dense_tagged `Rh));
          Alcotest.test_case "batch tag changes nothing (rhtalu)" `Quick
            (batch_tag_inert (dense_tagged `Rhtalu));
          Alcotest.test_case "batch tag changes nothing (flat churn)" `Quick
            (batch_tag_inert flat_churn_tagged);
        ] );
      ( "golden",
        [
          Alcotest.test_case "serial loop pin (rh)" `Quick test_golden_pin_rh;
          Alcotest.test_case "serial loop pin (rhtalu)" `Quick
            test_golden_pin_rhtalu;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "latency clock seam" `Quick
            test_latency_clock_seam;
          Alcotest.test_case "imbalance from executed counts" `Quick
            test_imbalance_from_executed;
          Alcotest.test_case "imbalance all-zero is 0.0" `Quick
            test_imbalance_all_zero;
          Alcotest.test_case "imbalance folds per-epoch deltas (migration)"
            `Quick test_imbalance_epoch_fold_migration;
        ] );
      ( "balance",
        [
          Alcotest.test_case "map rebalance splits hot keywords" `Quick
            test_shard_map_rebalance;
        ] );
      ( "load_gen",
        [
          Alcotest.test_case "closed loop" `Quick test_closed_loop_never_sheds;
          Alcotest.test_case "open loop" `Quick test_open_loop_counts;
          Alcotest.test_case "open loop validation" `Quick
            test_open_loop_validation;
          Alcotest.test_case "closed loop validation" `Quick
            test_closed_loop_validation;
        ] );
    ]
