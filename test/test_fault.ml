(* Fault-tolerance tests for the serving pipeline: the Fault switchboard
   itself, the lane supervisor (degrade after exhausted restarts), and the
   deadline degradation ladder — at the engine level with a scripted
   clock (no sleeps, fully deterministic) and at the server level with
   injected slow auctions (the `Slow "injected-timing" group, about
   0.3 s of sleeps).  The restart and armed-but-unfired cells, served =
   serial across worker counts, are rows of the scenario table
   (test_scenarios.ml). *)

open Essa_serve
open Test_harness

let engine workload ~method_ =
  Essa_sim.Workload.make_engine ~partitioned:true workload ~method_

(* The served run's per-keyword commit logs, its final state, its stats
   and the stopped server. *)
let run_served ?deadline_budget_ns ?max_restarts ~faults workload ~method_
    ~workers ~queries () =
  let engine = engine workload ~method_ in
  let server, stats =
    serve ~faults ?deadline_budget_ns ?max_restarts ~workers ~max_batch:5
      ~engine queries
  in
  (logs server, fingerprint engine, stats, server)

let logged logs = Array.fold_left (fun n log -> n + List.length log) 0 logs

let workload () =
  Essa_sim.Workload.section5 ~seed:61 ~n:40 ~k:4 ~num_keywords:6
    ~budgeted_fraction:0.25 ()

(* ------------------------------------------------------------------ *)
(* The switchboard itself *)

let test_parse_roundtrip () =
  let cases =
    [
      ("exn@7", Fault.Engine_exn { seq = 7 });
      ("kill@250", Fault.Kill_server { seq = 250 });
      ("slow@3:20", Fault.Slow_auction { seq = 3; delay_ns = 20_000_000 });
      ("stall@1:50", Fault.Lane_stall { lane = 1; delay_ns = 50_000_000 });
      (* Exact-nanosecond delays: the ns suffix must survive a full
         round-trip, and decimal milliseconds round to the nearest ns. *)
      ("slow@5:1234567ns", Fault.Slow_auction { seq = 5; delay_ns = 1_234_567 });
      ("stall@0:1ns", Fault.Lane_stall { lane = 0; delay_ns = 1 });
      ("slow@2:2.5", Fault.Slow_auction { seq = 2; delay_ns = 2_500_000 });
    ]
  in
  List.iter
    (fun (s, spec) ->
      (match Fault.parse s with
      | Ok parsed ->
          Alcotest.(check bool) (s ^ " parses") true (parsed = spec)
      | Error e -> Alcotest.failf "%s: %s" s e);
      match Fault.parse (Fault.to_string spec) with
      | Ok reparsed ->
          Alcotest.(check bool) (s ^ " roundtrips") true (reparsed = spec)
      | Error e -> Alcotest.failf "roundtrip %s: %s" s e)
    cases;
  List.iter
    (fun bad ->
      match Fault.parse bad with
      | Ok _ -> Alcotest.failf "%S should not parse" bad
      | Error _ -> ())
    [ ""; "exn"; "exn@"; "exn@x"; "exn@-1"; "slow@3"; "slow@3:0";
      "stall@1:-5"; "boom@1"; "slow@:5"; "kill@"; "kill@-3"; "kill@1:5";
      "slow@3:0ns"; "slow@3:-7ns" ]

let test_parse_roundtrip_prop =
  (* parse (to_string spec) = Ok spec for every representable spec,
     including delays that are not a whole number of milliseconds (the
     bug pinned here: "%g" ms printing kept 6 significant digits, so
     fine-grained delays drifted through a round-trip). *)
  let gen =
    let open QCheck2.Gen in
    let seq = int_range 0 1_000_000 in
    let delay =
      oneof
        [
          map (fun ms -> ms * 1_000_000) (int_range 1 100_000);
          int_range 1 1_000_000_000;
        ]
    in
    oneof
      [
        map (fun seq -> Fault.Engine_exn { seq }) seq;
        map (fun seq -> Fault.Kill_server { seq }) seq;
        map2
          (fun seq delay_ns -> Fault.Slow_auction { seq; delay_ns })
          seq delay;
        map2
          (fun lane delay_ns -> Fault.Lane_stall { lane; delay_ns })
          seq delay;
      ]
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:1000 ~name:"parse (to_string s) = Ok s"
       ~print:(fun spec -> Fault.to_string spec)
       gen
       (fun spec -> Fault.parse (Fault.to_string spec) = Ok spec))

let test_create_validates () =
  Alcotest.check_raises "negative seq"
    (Invalid_argument "Fault.create: negative seq") (fun () ->
      ignore (Fault.create [ Engine_exn { seq = -1 } ]));
  Alcotest.check_raises "non-positive delay"
    (Invalid_argument "Fault.create: non-positive delay") (fun () ->
      ignore (Fault.create [ Slow_auction { seq = 0; delay_ns = 0 } ]))

let test_fires_once () =
  let faults = Fault.create [ Engine_exn { seq = 4 } ] in
  Fault.before_execute faults ~seq:3 (* no match: no-op *);
  (try
     Fault.before_execute faults ~seq:4;
     Alcotest.fail "armed fault did not fire"
   with Fault.Injected 4 -> ());
  (* Each spec fires at most once: the retried sequence executes. *)
  Fault.before_execute faults ~seq:4

let test_same_seq_kill_dominates () =
  (* Same-seq firing order is fixed — kill before exn — whichever order
     the specs were armed in.  The exn stays armed through the kill
     (fire-once is per spec), so a retry of the same sequence hits it. *)
  List.iter
    (fun specs ->
      let faults = Fault.create specs in
      (try
         Fault.before_execute faults ~seq:5;
         Alcotest.fail "armed kill did not fire"
       with Fault.Killed 5 -> ());
      (try
         Fault.before_execute faults ~seq:5;
         Alcotest.fail "exn should survive the kill"
       with Fault.Injected 5 -> ());
      Fault.before_execute faults ~seq:5 (* both fired: no-op *))
    [
      [ Fault.Kill_server { seq = 5 }; Fault.Engine_exn { seq = 5 } ];
      [ Fault.Engine_exn { seq = 5 }; Fault.Kill_server { seq = 5 } ];
    ]

let test_same_seq_delay_before_exn () =
  (* A delay and an exn armed at the same sequence: the delay must be
     applied before the exception is raised, for either arm order — a
     raising one-pass scan would skip the delay when the exn was armed
     first.  Timing-observable, so this lives in the `Slow group. *)
  let delay_ns = 30_000_000 in
  List.iter
    (fun specs ->
      let faults = Fault.create specs in
      let t0 = Essa_util.Timing.now_ns () in
      (try
         Fault.before_execute faults ~seq:9;
         Alcotest.fail "armed exn did not fire"
       with Fault.Injected 9 -> ());
      let elapsed = Int64.sub (Essa_util.Timing.now_ns ()) t0 in
      Alcotest.(check bool) "delay applied before the raise" true
        (elapsed >= Int64.of_int (delay_ns / 2)))
    [
      [ Fault.Slow_auction { seq = 9; delay_ns }; Fault.Engine_exn { seq = 9 } ];
      [ Fault.Engine_exn { seq = 9 }; Fault.Slow_auction { seq = 9; delay_ns } ];
    ]

(* ------------------------------------------------------------------ *)
(* Lane supervision *)

let test_degrade_after_max_restarts () =
  (* max_restarts = 0: the first failure degrades the lane, which then
     blind-commits its remaining queries.  With one worker that is every
     query after the failure. *)
  let workload = workload () in
  let total = 80 and fail_seq = 20 in
  let queries = Essa_sim.Workload.queries workload ~seed:63 ~count:total in
  let logs, _, stats, server =
    run_served ~max_restarts:0
      ~faults:(Fault.create [ Fault.Engine_exn { seq = fail_seq } ])
      workload ~method_:`Rh ~workers:1 ~queries ()
  in
  Alcotest.(check int) "all committed" total stats.committed;
  Alcotest.(check int) "one failure" 1 stats.failed;
  Alcotest.(check int) "no restarts" 0 stats.lane_restarts;
  Alcotest.(check int) "rest skipped" (total - fail_seq - 1) stats.skipped;
  Alcotest.(check int) "summaries only before the failure" fail_seq
    (logged logs);
  Alcotest.(check int) "skipped counter agrees" stats.skipped
    (counter (Server.metrics server) "essa.serve.lane_skipped")

let test_degraded_lane_keeps_fleet_live () =
  (* Two lanes, restarts exhausted immediately: only the crashing lane's
     shard degrades; the other lane keeps serving every query. *)
  let workload = workload () in
  let total = 120 and fail_seq = 15 in
  let queries = Essa_sim.Workload.queries workload ~seed:64 ~count:total in
  let workers = 2 in
  let fail_shard = Shard.of_keyword ~shards:workers queries.(fail_seq) in
  let expected_skipped = ref 0 in
  Array.iteri
    (fun i kw ->
      if i > fail_seq && Shard.of_keyword ~shards:workers kw = fail_shard then
        incr expected_skipped)
    queries;
  let logs, _, stats, _ =
    run_served ~max_restarts:0
      ~faults:(Fault.create [ Fault.Engine_exn { seq = fail_seq } ])
      workload ~method_:`Rhtalu ~workers ~queries ()
  in
  Alcotest.(check int) "all committed" total stats.committed;
  Alcotest.(check int) "only the failing shard skipped" !expected_skipped
    stats.skipped;
  Alcotest.(check bool) "other lane kept serving" true (!expected_skipped < total - fail_seq - 1);
  Alcotest.(check int) "every query accounted for" total
    (logged logs + stats.failed + stats.skipped)

let test_stop_idempotent_after_failure () =
  let workload = workload () in
  let queries = Essa_sim.Workload.queries workload ~seed:66 ~count:40 in
  let _, _, stats, server =
    run_served
      ~faults:(Fault.create [ Fault.Engine_exn { seq = 5 } ])
      workload ~method_:`Rh ~workers:2 ~queries ()
  in
  (* run_served already stopped once; stop again and compare. *)
  let again = Server.stop server in
  Alcotest.(check bool) "same snapshot" true (stats = again);
  Alcotest.(check int) "errors accessor agrees" (List.length stats.errors)
    (List.length (Server.errors server))

(* ------------------------------------------------------------------ *)
(* Deadline degradation ladder (engine level, scripted clock) *)

let make_clocked_engine workload ~clock =
  Essa.Engine.create ~clock ~partitioned:true ~reserve:0 ~pricing:`Gsp
    ~method_:`Rhtalu
    ~ctr:(Essa_sim.Workload.ctr workload)
    ~states:(Essa_sim.Workload.fresh_states workload)
    ~user_seed:99 ()

let test_engine_unfilled_tier () =
  let workload = workload () in
  (* Clock pinned past the deadline: already blown at the start check. *)
  let engine = make_clocked_engine workload ~clock:(fun () -> 100L) in
  let s = Essa.Engine.run_partitioned ~deadline_ns:50L engine ~keyword:0 in
  Alcotest.(check bool) "degraded unfilled" true (s.degraded = Some Essa.Engine.Unfilled);
  Alcotest.(check bool) "all slots empty" true
    (Array.for_all Option.is_none s.assignment);
  Alcotest.(check bool) "no prices" true (Array.for_all (( = ) 0) s.prices);
  Alcotest.(check bool) "no clicks" true (Array.for_all not s.clicks);
  Alcotest.(check int) "no revenue" 0 s.revenue;
  Alcotest.(check int) "auction still counted" 1
    (Essa.Engine.auctions_run engine);
  let registry = Essa.Engine.metrics engine in
  Alcotest.(check int) "unfilled counter" 1
    (counter registry "essa.auction.degraded_unfilled");
  Alcotest.(check int) "cheap counter untouched" 0
    (counter registry "essa.auction.degraded_cheap");
  (* The ladder is per-auction: the next query (no deadline) runs full. *)
  let s2 = Essa.Engine.run_partitioned engine ~keyword:0 in
  Alcotest.(check bool) "next auction full path" true (s2.degraded = None);
  Alcotest.(check int) "time advanced through both" 2 s2.auction_time

let test_engine_cheap_tier () =
  let workload = workload () in
  (* First clock read (start check) is inside the budget, every later
     read is past it: exactly the post-program-eval rung trips. *)
  let calls = ref 0 in
  let clock () =
    incr calls;
    if !calls = 1 then 0L else 1_000L
  in
  let engine = make_clocked_engine workload ~clock in
  let s = Essa.Engine.run_partitioned ~deadline_ns:500L engine ~keyword:1 in
  Alcotest.(check bool) "degraded cheap" true
    (s.degraded = Some Essa.Engine.Cheap_allocation);
  Alcotest.(check bool) "allocation filled" true
    (Array.exists Option.is_some s.assignment);
  (* A degraded allocation is still a real one: billing is consistent. *)
  let billed = ref 0 in
  Array.iteri (fun j c -> if c then billed := !billed + s.prices.(j)) s.clicks;
  Alcotest.(check int) "revenue = billed clicks" !billed s.revenue;
  let registry = Essa.Engine.metrics engine in
  Alcotest.(check int) "cheap counter" 1
    (counter registry "essa.auction.degraded_cheap");
  Alcotest.(check int) "unfilled counter untouched" 0
    (counter registry "essa.auction.degraded_unfilled")

let test_engine_no_deadline_never_degrades () =
  let workload = workload () in
  (* Even with a clock reading absurdly late, no deadline = no ladder. *)
  let engine = make_clocked_engine workload ~clock:(fun () -> Int64.max_int) in
  let s = Essa.Engine.run_partitioned engine ~keyword:2 in
  Alcotest.(check bool) "full path" true (s.degraded = None)

(* ------------------------------------------------------------------ *)
(* Sleep-based scenarios *)

let test_stall_recovery () =
  (* An unresponsive lane holds its keywords back; once it wakes the
     backlog drains and — with no deadline armed — one lane's stream is
     still the one-domain loop's, and every lane count passes the replay
     contract. *)
  let workload = workload () in
  let queries = Essa_sim.Workload.queries workload ~seed:67 ~count:100 in
  let loop =
    let e = engine workload ~method_:`Rhtalu in
    let logs = partitioned_loop e queries in
    (logs, fingerprint e)
  in
  List.iter
    (fun workers ->
      let logs, fp, stats, server =
        run_served
          ~faults:
            (Fault.create [ Fault.Lane_stall { lane = 0; delay_ns = 50_000_000 } ])
          workload ~method_:`Rhtalu ~workers ~queries ()
      in
      if workers = 1 then
        Alcotest.(check bool) "stalled run = one-domain loop" true
          ((logs, fp) = loop);
      Alcotest.(check bool)
        (Printf.sprintf "replay contract (workers=%d)" workers)
        true
        (Replay.ok
           (Replay.check_server server ~fresh:(engine workload ~method_:`Rhtalu)));
      Alcotest.(check int) "all committed" stats.accepted stats.committed)
    [ 1; 2; 3; 4 ]

let test_server_deadline_degrades () =
  (* A 60 ms injected stall on the first auction against a 5 ms budget:
     the first query (and the backlog queued behind it, whose enqueue
     times are equally stale) must degrade rather than stall the stream.
     Margins are 12x so scheduling noise cannot flip the outcome. *)
  let workload = workload () in
  let queries = Essa_sim.Workload.queries workload ~seed:68 ~count:60 in
  let logs, _, stats, server =
    run_served
      ~faults:
        (Fault.create [ Fault.Slow_auction { seq = 0; delay_ns = 60_000_000 } ])
      ~deadline_budget_ns:5_000_000 workload ~method_:`Rhtalu ~workers:2
      ~queries ()
  in
  Alcotest.(check int) "all committed" stats.accepted stats.committed;
  Alcotest.(check int) "no failures" 0 stats.failed;
  Alcotest.(check bool) "deadline tripped" true (stats.degraded > 0);
  (match logs.(queries.(0)) with
  | (first : Essa.Engine.summary) :: _ ->
      Alcotest.(check bool) "first auction degraded unfilled" true
        (first.degraded = Some Essa.Engine.Unfilled)
  | [] -> Alcotest.fail "no summaries");
  let registry = Server.metrics server in
  Alcotest.(check int) "serve degraded counter" stats.degraded
    (counter registry "essa.serve.degraded");
  Alcotest.(check bool) "unfilled counted" true
    (counter registry "essa.serve.degraded_unfilled" > 0)

let test_crash_and_deadline_combined () =
  (* Everything at once: a stall, a crash and a tight budget.  The
     stream must still complete — every accepted sequence commits. *)
  let workload = workload () in
  let queries = Essa_sim.Workload.queries workload ~seed:69 ~count:80 in
  let _, _, stats, _ =
    run_served
      ~faults:
        (Fault.create
           [
             Fault.Lane_stall { lane = 0; delay_ns = 30_000_000 };
             Fault.Engine_exn { seq = 10 };
             Fault.Slow_auction { seq = 30; delay_ns = 30_000_000 };
           ])
      ~deadline_budget_ns:5_000_000 workload ~method_:`Rhtalu ~workers:2
      ~queries ()
  in
  Alcotest.(check int) "all committed" stats.accepted stats.committed;
  Alcotest.(check int) "crash reported" 1 stats.failed;
  Alcotest.(check bool) "deadline tripped" true (stats.degraded > 0)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "essa_serve faults"
    [
      ( "switchboard",
        [
          Alcotest.test_case "parse/to_string" `Quick test_parse_roundtrip;
          test_parse_roundtrip_prop;
          Alcotest.test_case "create validates" `Quick test_create_validates;
          Alcotest.test_case "fires once" `Quick test_fires_once;
          Alcotest.test_case "same-seq: kill dominates exn" `Quick
            test_same_seq_kill_dominates;
        ] );
      ( "supervision",
        [
          Alcotest.test_case "restarts exhausted -> lane degrades" `Quick
            test_degrade_after_max_restarts;
          Alcotest.test_case "degraded lane keeps fleet live" `Quick
            test_degraded_lane_keeps_fleet_live;
          Alcotest.test_case "stop idempotent after failure" `Quick
            test_stop_idempotent_after_failure;
        ] );
      ( "deadline",
        [
          Alcotest.test_case "unfilled tier (scripted clock)" `Quick
            test_engine_unfilled_tier;
          Alcotest.test_case "cheap tier (scripted clock)" `Quick
            test_engine_cheap_tier;
          Alcotest.test_case "no deadline, no degrade" `Quick
            test_engine_no_deadline_never_degrades;
        ] );
      ( "injected-timing",
        [
          Alcotest.test_case "same-seq: delay before exn" `Slow
            test_same_seq_delay_before_exn;
          Alcotest.test_case "lane stall recovery" `Slow test_stall_recovery;
          Alcotest.test_case "server deadline degrades" `Slow
            test_server_deadline_degrades;
          Alcotest.test_case "crash + stall + deadline" `Slow
            test_crash_and_deadline_combined;
        ] );
    ]
