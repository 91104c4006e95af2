(* Drive the keyword-sharded serving pipeline from the command line:
   build a Section V workload (or a Zipf universe), stand up an
   [Essa_serve.Server] over its partitioned engine and push a query
   stream through, then report throughput, commit latency percentiles
   and shedding.

     dune exec bin/serve_cli.exe -- run \
       --n 2000 --keywords 10 --slots 15 --method rhtalu \
       --workers 4 --auctions 20000

   The default client is closed-loop (a fixed number of in-flight
   queries, the admission-controlled regime); pass --rate to switch to
   an open-loop client that offers queries on a fixed schedule whether
   or not the server keeps up — the regime where the bounded ingress
   queue sheds. *)

(* The server runs partitioned engines only: the Section V workload is
   served by RH or RHTALU on the dense partitioned engine. *)
let method_of_string = function
  | "rh" -> `Rh
  | "rhtalu" -> `Rhtalu
  | "lp" | "lp-dense" | "h" ->
      prerr_endline
        "--method lp|lp-dense|h cannot be served (the server runs the \
         partitioned engine: rh or rhtalu)";
      exit 2
  | other ->
      prerr_endline ("unknown method " ^ other ^ " (expected rh|rhtalu)");
      exit 2

let percentiles registry name =
  match Essa_obs.Registry.find registry name with
  | Some (Essa_obs.Registry.Histogram h) when Essa_obs.Histogram.count h > 0 ->
      Some
        ( Essa_obs.Histogram.percentile h 50.0,
          Essa_obs.Histogram.percentile h 95.0,
          Essa_obs.Histogram.percentile h 99.0 )
  | _ -> None

(* "K:N:S" — K keywords, N advertisers, Zipf exponent S. *)
let universe_of_string s =
  let fail () =
    prerr_endline
      ("bad --universe " ^ s
     ^ " (expected K:N:S, e.g. 10000:100000:1.1 — K keywords, N \
        advertisers, Zipf exponent S)");
    exit 2
  in
  match String.split_on_char ':' s with
  | [ k; n; z ] -> (
      match (int_of_string_opt k, int_of_string_opt n, float_of_string_opt z)
      with
      | Some k, Some n, Some z when k >= 1 && n >= 1 && z >= 0.0 -> (k, n, z)
      | _ -> fail ())
  | _ -> fail ()

let fsync_of_string s =
  let fail () =
    prerr_endline
      ("unknown fsync policy " ^ s ^ " (expected always | never | every:N)");
    exit 2
  in
  match s with
  | "always" -> `Always
  | "never" -> `Never
  | _ -> (
      match String.split_on_char ':' s with
      | [ "every"; n ] -> (
          match int_of_string_opt n with
          | Some n when n >= 1 -> `Every n
          | _ -> fail ())
      | _ -> fail ())

(* The auction mechanism: gsp and vcg are the classic engine with that
   pricing rule; stable is the ascending stable-matching auction;
   reserve is GSP behind a per-keyword monopoly reserve. *)
let mechanism_of_string :
    string -> Essa.Engine.pricing * Essa.Engine.mechanism = function
  | "gsp" -> (`Gsp, `Classic)
  | "vcg" -> (`Vcg, `Classic)
  | "stable" -> (`Gsp, `Stable)
  | "reserve" -> (`Gsp, `Reserve `Monopoly)
  | other ->
      prerr_endline
        ("unknown mechanism " ^ other ^ " (expected gsp|vcg|stable|reserve)");
      exit 2

let run n slots keywords method_ seed workers queue_capacity max_batch auctions
    rate window metrics fault_specs
    deadline_budget_ms max_restarts replay_check universe churn balance
    rebalance_every cache update_every wal_dir fsync wal_snapshot_every recover
    mechanism =
  let faults =
    match
      List.fold_left
        (fun acc s ->
          match (acc, Essa_serve.Fault.parse s) with
          | Error e, _ -> Error e
          | Ok specs, Ok spec -> Ok (spec :: specs)
          | Ok _, Error e -> Error e)
        (Ok []) fault_specs
    with
    | Ok specs -> Essa_serve.Fault.create (List.rev specs)
    | Error e ->
        prerr_endline e;
        exit 2
  in
  let deadline_budget_ns =
    Option.map (fun ms -> int_of_float (ms *. 1e6)) deadline_budget_ms
  in
  let metrics_fmt =
    match metrics with
    | None -> None
    | Some s -> (
        match Essa_obs.Export.format_of_string s with
        | Some fmt -> Some fmt
        | None ->
            prerr_endline
              ("unknown metrics format " ^ s ^ " (expected text | json | prom)");
            exit 2)
  in
  let pricing, mechanism = mechanism_of_string mechanism in
  let universe_spec = Option.map universe_of_string universe in
  if pricing = `Vcg && universe_spec <> None then begin
    (* The flat engine prices from per-slot top lists; VCG needs the
       reduced assignment-problem view the dense engines build. *)
    prerr_endline "--mechanism vcg cannot be combined with --universe";
    exit 2
  end;
  if churn <> 0.0 && universe_spec = None then begin
    prerr_endline "--churn requires --universe";
    exit 2
  end;
  if not (churn >= 0.0 && churn <= 1.0) then begin
    prerr_endline "--churn must be in [0,1]";
    exit 2
  end;
  if update_every < 1 then begin
    prerr_endline "--update-every must be >= 1";
    exit 2
  end;
  let fsync = fsync_of_string fsync in
  if wal_snapshot_every < 0 then begin
    prerr_endline "--wal-snapshot-every must be >= 0";
    exit 2
  end;
  if recover && wal_dir = None then begin
    prerr_endline "--recover requires --wal";
    exit 2
  end;
  if recover && rate <> None then begin
    prerr_endline
      "--recover requires the closed-loop client (the resubmission set is \
       derived from the deterministic trace; drop --rate)";
    exit 2
  end;
  let registry = Essa_obs.Registry.create () in
  (* Both modes produce the same five things: an engine constructor
     (over an optional recovered store image), the keyword stream and
     its materialized-trace form, a thunk building the bit-identical
     fresh engine for --replay-check, and a header line. *)
  let engine_of, keywords_seq, trace_of, fresh_engine, describe, nkw =
    match universe_spec with
    | Some (ukw, un, uzs) ->
        let u =
          Essa_sim.Workload.universe ~slots ~keywords:ukw ~n:un
            ~zipf_s:uzs ~seed ()
        in
        let engine_of snap =
          let store =
            match snap with
            | None -> Essa_sim.Workload.universe_store ~churn u ()
            | Some s ->
                (* The snapshot carries the tick-RNG positions, so the
                   re-attached churn hook resumes mid-stream. *)
                let store = Essa_strategy.State_store.of_snapshot_flat s in
                if churn > 0.0 then
                  Essa_sim.Workload.universe_attach_churn u store ~churn;
                store
          in
          Essa_sim.Workload.make_flat_engine ~metrics:registry ?cache
            ~update_every ~pricing ~mechanism u ~store
        in
        ( engine_of,
          Essa_sim.Workload.universe_query_stream u ~seed:(seed + 1),
          (fun count ->
            Essa_sim.Workload.universe_queries u ~seed:(seed + 1) ~count),
          (fun () ->
            Essa_sim.Workload.make_flat_engine ?cache ~update_every
              ~pricing ~mechanism u
              ~store:(Essa_sim.Workload.universe_store ~churn u ())),
          (fun () ->
            Format.printf
              "universe: keywords=%d n=%d zipf=%.2f churn=%.3f slots=%d \
               seed=%d@."
              ukw un uzs churn slots seed),
          ukw )
    | None ->
        let method_ = method_of_string method_ in
        let workload =
          Essa_sim.Workload.section5 ~seed ~n ~k:slots
            ~num_keywords:keywords ()
        in
        let engine_of snap =
          let states =
            Option.map Essa_strategy.State_store.dense_states snap
          in
          Essa_sim.Workload.make_engine ~metrics:registry ~partitioned:true
            ?cache ~update_every ~pricing ~mechanism ?states workload ~method_
        in
        ( engine_of,
          Essa_sim.Workload.query_stream workload ~seed:(seed + 1),
          (fun count ->
            Essa_sim.Workload.queries workload ~seed:(seed + 1) ~count),
          (fun () ->
            Essa_sim.Workload.make_engine ~partitioned:true ?cache ~update_every
              ~pricing ~mechanism workload ~method_),
          (fun () ->
            Format.printf "workload: n=%d slots=%d keywords=%d seed=%d@." n
              slots keywords seed),
          keywords )
  in
  let recovered =
    if recover then
      Some
        (Essa_serve.Recovery.restore
           ~dir:(Option.get wal_dir)
           ~num_keywords:nkw ~engine_of ())
    else None
  in
  let engine =
    match recovered with
    | Some (r : Essa_serve.Recovery.restored) -> r.engine
    | None -> engine_of None
  in
  let wal_writer =
    Option.map
      (fun dir -> Essa_serve.Wal.create_writer ~fsync ~dir ())
      wal_dir
  in
  let server =
    Essa_serve.Server.create ~metrics:registry ~workers ~queue_capacity
      ~max_batch ~max_restarts ?deadline_budget_ns ~faults ~balance
      ~rebalance_every ?wal:wal_writer ~wal_snapshot_every ~engine ()
  in
  let resubmitted = ref 0 in
  let report =
    match recovered with
    | Some (r : Essa_serve.Recovery.restored) ->
        (* Resubmit exactly the trace positions the WAL did not
           settle, in ascending order; the persisted prefix is
           already in the restored engine. *)
        let trace = trace_of auctions in
        let persisted = Hashtbl.create 1024 in
        Array.iter (fun s -> Hashtbl.replace persisted s ()) r.persisted;
        let remaining = ref [] in
        Array.iteri
          (fun i kw ->
            if not (Hashtbl.mem persisted i) then remaining := kw :: !remaining)
          trace;
        let remaining = List.rev !remaining in
        resubmitted := List.length remaining;
        Essa_serve.Load_gen.closed_loop server
          ~keywords:(List.to_seq remaining)
          ~total:!resubmitted ~window ()
    | None -> (
        match rate with
        | Some rate_per_s ->
            Essa_serve.Load_gen.open_loop server ~keywords:keywords_seq
              ~offered:auctions ~rate_per_s ()
        | None ->
            Essa_serve.Load_gen.closed_loop server ~keywords:keywords_seq
              ~total:auctions ~window ())
  in
  let stats = Essa_serve.Server.stop server in
  Option.iter Essa_serve.Wal.close_writer wal_writer;
  describe ();
  Format.printf "server:   workers=%d queue=%d batch=%d@." workers
    queue_capacity max_batch;
  Format.printf "engine:   mechanism=%s cache=%s update-every=%d@."
    (Essa.Engine.mechanism_name engine)
    (if Essa.Engine.cache_enabled engine then "on" else "off")
    update_every;
  Format.printf "client:   %s, %d offered@."
    (match rate with
    | Some r -> Printf.sprintf "open loop at %.0f/s" r
    | None -> Printf.sprintf "closed loop, window %d" window)
    report.offered;
  Format.printf "accepted: %d   shed: %d   committed: %d@." report.accepted
    report.shed stats.committed;
  Format.printf "lanes:    imbalance %.3f%s@." stats.lane_imbalance
    (if balance then Printf.sprintf "   rebalances %d" stats.rebalances
     else "");
  (match wal_dir with
  | Some dir ->
      Format.printf "wal:      dir=%s fsync=%s snapshot-every=%d@." dir
        (match fsync with
        | `Always -> "always"
        | `Never -> "never"
        | `Every n -> Printf.sprintf "every:%d" n)
        wal_snapshot_every
  | None -> ());
  (match recovered with
  | Some (r : Essa_serve.Recovery.restored) ->
      Format.printf
        "recover:  snapshot=%b persisted=%d trimmed=%b tail-mismatches=%d \
         resubmitted=%d@."
        r.snapshot_used (Array.length r.persisted) r.trimmed
        r.tail_mismatches !resubmitted
  | None -> ());
  if stats.killed then
    Format.printf "killed:   yes (execution stopped; WAL frozen at the \
                   kill point)@.";
  (match Essa_serve.Fault.specs faults with
  | [] -> ()
  | specs ->
      Format.printf "faults:   %s@."
        (String.concat ", "
           (List.map Essa_serve.Fault.to_string specs)));
  if
    stats.failed > 0 || stats.skipped > 0 || stats.degraded > 0
    || stats.lane_restarts > 0 || stats.rejected_closed > 0
  then
    Format.printf
      "faulted:  failed %d   restarts %d   skipped %d   degraded %d   \
       rejected-closed %d@."
      stats.failed stats.lane_restarts stats.skipped stats.degraded
      stats.rejected_closed;
  List.iter
    (fun (e : Essa_serve.Server.error) ->
      Format.printf "  error: lane %d seq %d keyword %d: %s@." e.lane e.seq
        e.keyword (Printexc.to_string e.exn))
    stats.errors;
  Format.printf "elapsed:  %.3f s   throughput: %.0f auctions/s@."
    (Int64.to_float report.elapsed_ns /. 1e9)
    report.throughput_per_s;
  (match percentiles registry "essa.serve.commit_latency_ns" with
  | Some (p50, p95, p99) ->
      Format.printf
        "enqueue->commit latency: p50 %.1f us   p95 %.1f us   p99 %.1f us@."
        (p50 /. 1e3) (p95 /. 1e3) (p99 /. 1e3)
  | None -> ());
  (match percentiles registry "essa.auction.total_ns" with
  | Some (p50, p95, p99) ->
      Format.printf
        "auction execution:       p50 %.1f us   p95 %.1f us   p99 %.1f us@."
        (p50 /. 1e3) (p95 /. 1e3) (p99 /. 1e3)
  | None -> ());
  Format.printf "revenue:  %d cents@." stats.revenue;
  if replay_check then begin
    (* A second partitioned engine over the same workload and seeds,
       on a private registry so the replay's auctions don't pollute
       the served run's metrics.  In universe mode this rebuilds the
       flat store from scratch — same enrollment, same churn seed —
       so scheduled churn re-fires at the same keyword-local times. *)
    let fresh = fresh_engine () in
    let r =
      match recovered with
      | None -> Essa_serve.Replay.check_server server ~fresh
      | Some (rc : Essa_serve.Recovery.restored) ->
          (* The full served stream of the killed-then-recovered run:
             WAL-persisted summaries followed by the restarted
             server's commit logs, per keyword.  Checked end to end
             against one fresh engine — the recovery contract is
             that this combined stream is indistinguishable from an
             uninterrupted run's. *)
          let log =
            Array.init nkw (fun kw ->
                rc.logs.(kw)
                @ Essa_serve.Server.commit_log server ~keyword:kw)
          in
          Essa_serve.Replay.check ~served:engine ~fresh ~log
    in
    Format.printf
      "replay:   %s   (%d auctions: replay %s, clocks %s, conservation \
       %s, budgets %s)@."
      (if Essa_serve.Replay.ok r then "OK" else "FAILED")
      r.auctions_checked
      (if r.replay_ok then "ok" else "MISMATCH")
      (if r.clocks_monotone then "monotone" else "NON-MONOTONE")
      (if r.spend_conserved then
         Printf.sprintf "ok (%d = %d = %d cents)" r.log_revenue
           r.served_revenue r.replayed_revenue
       else
         Printf.sprintf "BROKEN (log %d, served %d, replayed %d)"
           r.log_revenue r.served_revenue r.replayed_revenue)
      (if r.budgets_respected then "ok" else "VIOLATED");
    List.iter
      (fun (m : Essa_serve.Replay.mismatch) ->
        Format.printf "  mismatch: keyword %d position %d field %s@."
          m.keyword m.position m.field)
      r.mismatches;
    let tail_bad =
      match recovered with
      | Some (rc : Essa_serve.Recovery.restored) -> rc.tail_mismatches > 0
      | None -> false
    in
    if (not (Essa_serve.Replay.ok r)) || tail_bad then exit 1
  end;
  match metrics_fmt with
  | None -> ()
  | Some fmt ->
      print_newline ();
      print_string (Essa_obs.Export.render fmt registry)

open Cmdliner

let n_t =
  Arg.(value & opt int 1000
       & info [ "n"; "advertisers" ] ~doc:"Number of advertisers.")

let slots_t = Arg.(value & opt int 15 & info [ "slots" ] ~doc:"Ad slots (k).")

let keywords_t =
  Arg.(value & opt int 10 & info [ "keywords" ] ~doc:"Keyword universe size.")

let method_t =
  Arg.(value & opt string "rhtalu"
       & info [ "method" ] ~doc:"Engine method: rh | rhtalu (the dense partitioned engine).")

let seed_t =
  Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Workload + user-click seed.")

let workers_t =
  Arg.(value & opt int 2 & info [ "workers" ] ~doc:"Lane (worker domain) count.")

let queue_t =
  Arg.(value & opt int 1024
       & info [ "queue" ] ~doc:"Ingress queue capacity (the shedding bound).")

let batch_t =
  Arg.(value & opt int 64 & info [ "batch" ] ~doc:"Maximum batch size.")

let auctions_t =
  Arg.(value & opt int 5000 & info [ "auctions" ] ~doc:"Queries to offer.")

let rate_t =
  Arg.(value & opt (some float) None
       & info [ "rate" ]
           ~doc:"Open-loop offered rate, queries/s (default: closed loop).")

let window_t =
  Arg.(value & opt int 32
       & info [ "window" ] ~doc:"Closed-loop in-flight window.")

let metrics_t =
  Arg.(value & opt (some string) None
       & info [ "metrics" ]
           ~doc:"Print the full Essa_obs snapshot afterwards: text | json | prom.")

let fault_t =
  Arg.(value & opt_all string []
       & info [ "fault" ]
           ~doc:"Inject a fault (repeatable): exn\\@SEQ raises in the engine \
                 on arrival SEQ, slow\\@SEQ:MS delays that auction by MS \
                 milliseconds (append ns for nanoseconds), stall\\@LANE:MS \
                 stalls a lane domain once, kill\\@SEQ crashes the server at \
                 arrival SEQ (execution stops, the WAL freezes; recover \
                 with --recover).")

let deadline_t =
  Arg.(value & opt (some float) None
       & info [ "deadline-budget" ]
           ~doc:"Per-auction time budget in milliseconds, measured from \
                 enqueue; auctions over budget degrade to a cheap \
                 allocation or serve unfilled.")

let max_restarts_t =
  Arg.(value & opt int 2
       & info [ "max-restarts" ]
           ~doc:"Lane failures tolerated (with restart) before the \
                 supervisor degrades the lane to skipping.")

let replay_check_t =
  Arg.(value & flag
       & info [ "replay-check" ]
           ~doc:"After the run, re-execute every keyword's commit \
                 log from its recorded spend snapshots on a fresh \
                 partitioned engine and verify bit-for-bit reproduction, \
                 clock monotonicity, spend conservation and budget \
                 admission; exit 1 on any violation.")

let universe_t =
  Arg.(value & opt (some string) None
       & info [ "universe" ]
           ~doc:"Serve a Zipf universe instead of the Section V workload: \
                 K:N:S (K keywords, N advertisers, Zipf exponent S) on the \
                 flat-store partitioned engine; --method / --keywords / \
                 --n are ignored.")

let churn_t =
  Arg.(value & opt float 0.0
       & info [ "churn" ]
           ~doc:"Per-auction bidder churn probability in [0,1] (universe \
                 mode): on each keyword tick, with this probability one \
                 bidder departs or a new one arrives on that keyword, \
                 deterministically from the seed.")

let balance_t =
  Arg.(value & flag
       & info [ "balance" ]
           ~doc:"Replace the static modulo keyword->lane map with the \
                 load-aware map: hot-head LPT plus power-of-two-choices on \
                 executed-count EWMAs, rebalanced between batches.")

let rebalance_every_t =
  Arg.(value & opt int 4
       & info [ "rebalance-every" ]
           ~doc:"Batches per rebalance epoch (with --balance).")

let cache_t =
  Arg.(value & opt (some bool) None
       & info [ "cache" ]
           ~doc:"Turn the cross-auction evaluation cache on (true) or off \
                 (false).  Default: on.")

let update_every_t =
  Arg.(value & opt int 1
       & info [ "update-every" ]
           ~doc:"Run advertiser bid-update programs only on every T-th \
                 auction of a keyword (clocks still tick, so pacing \
                 targets accrue per auction).  1 = update on every \
                 auction; larger values model a production regime where \
                 queries far outnumber bid changes and let the \
                 evaluation cache hit.")

let wal_t =
  Arg.(value & opt (some string) None
       & info [ "wal" ]
           ~doc:"Write-ahead-log directory: lanes append every committed summary, the batcher \
                 appends periodic engine snapshots, and --recover \
                 rebuilds the engine from the directory after a crash.")

let fsync_t =
  Arg.(value & opt string "never"
       & info [ "fsync" ]
           ~doc:"WAL durability policy: always (fsync every record), \
                 never (flush only; torn tails are still trimmed on \
                 recovery), or every:N (group commit — one fsync per N \
                 records plus one at rotation/close; a crash loses at \
                 most the last N-1 accepted records).")

let wal_snapshot_every_t =
  Arg.(value & opt int 8
       & info [ "wal-snapshot-every" ]
           ~doc:"Batches between WAL snapshot records (0 disables \
                 snapshots; recovery then replays the whole log).")

let mechanism_t =
  Arg.(value & opt string "gsp"
       & info [ "mechanism" ]
           ~doc:"Auction mechanism: gsp | vcg (classic engine with that \
                 pricing rule) | stable (ascending stable-matching \
                 auction with per-slot max-price constraints) | reserve \
                 (GSP behind a per-keyword monopoly reserve price).  vcg \
                 is dense-engine only (not with --universe).")

let recover_t =
  Arg.(value & flag
       & info [ "recover" ]
           ~doc:"Recover from the --wal directory before serving: rebuild \
                 the engine from the latest snapshot, replay the log \
                 tail, then resubmit only the trace positions the WAL \
                 did not settle.  With --replay-check, the combined \
                 (persisted + resumed) stream is verified end to end.")

let run_cmd =
  Cmd.v
    (Cmd.info "run" ~doc:"Serve a query stream through the sharded pipeline")
    Term.(const run $ n_t $ slots_t $ keywords_t $ method_t $ seed_t
          $ workers_t $ queue_t $ batch_t $ auctions_t $ rate_t $ window_t
          $ metrics_t $ fault_t $ deadline_t
          $ max_restarts_t $ replay_check_t $ universe_t $ churn_t
          $ balance_t $ rebalance_every_t $ cache_t $ update_every_t $ wal_t
          $ fsync_t $ wal_snapshot_every_t $ recover_t $ mechanism_t)

let main =
  Cmd.group
    (Cmd.info "serve" ~version:"1.0"
       ~doc:"Keyword-sharded auction serving pipeline driver")
    [ run_cmd ]

let () = exit (Cmd.eval main)
