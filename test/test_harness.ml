(* Helpers shared by the serving, durability, fault, core and scenario
   suites: what they compare (a summary's deterministic fields, an
   engine's observable state, a registry's counters), a submit-everything
   server run, and scratch directories for WAL tests. *)

open Essa_serve
module Engine = Essa.Engine
module Roi_fleet = Essa_strategy.Roi_fleet

(* A summary's deterministic fields (no timings, no witnesses). *)
let strip (s : Engine.summary) =
  (s.auction_time, s.keyword, s.assignment, s.prices, s.clicks, s.revenue,
   s.degraded)

(* Everything observable about a finished engine: revenue, clocks, and
   every advertiser's bids, global spend and (dense) per-keyword
   tallies. *)
let fingerprint engine =
  let fleet = Engine.fleet engine and nk = Engine.num_keywords engine in
  ( Engine.total_revenue engine,
    Engine.auctions_run engine,
    Engine.time engine,
    List.init (Engine.n engine) (fun adv ->
        ( Roi_fleet.amt_spent fleet ~adv,
          List.init nk (fun kw -> Engine.bid engine ~adv ~keyword:kw),
          if Engine.is_flat engine then []
          else
            let st = Roi_fleet.state fleet ~adv in
            List.init nk (fun kw ->
                ( Essa_strategy.Roi_state.gained st ~keyword:kw,
                  Essa_strategy.Roi_state.spent st ~keyword:kw )) )) )

(* Every counter of [reg], sorted by name; [except_cache] drops the
   evaluation cache's own. *)
let counters ?(except_cache = false) reg =
  List.sort compare
    (List.filter_map
       (fun (e : Essa_obs.Registry.entry) ->
         match e.metric with
         | Essa_obs.Registry.Counter c
           when not
                  (except_cache
                  && String.starts_with ~prefix:"essa.engine.cache" e.name) ->
             Some (e.name, Essa_obs.Counter.value c)
         | _ -> None)
       (Essa_obs.Registry.entries reg))

let counter reg name =
  match Essa_obs.Registry.find reg name with
  | Some (Essa_obs.Registry.Counter c) -> Essa_obs.Counter.value c
  | _ -> Alcotest.failf "missing counter %s" name

(* Submit every query to a fresh server on [engine] and stop it: the
   server and its stats.  The queue holds the whole run, so a shed is an
   error; so is a closed ingress unless [closed_ok] (a fired kill closes
   it mid-submission). *)
let serve ?(closed_ok = false) ?(balance = false) ?faults ?deadline_budget_ns
    ?max_restarts ?wal ~workers ~max_batch ~engine queries =
  let server =
    Server.create ~workers ~max_batch ~balance
      ?rebalance_every:(if balance then Some 1 else None)
      ~queue_capacity:(max 1 (Array.length queries))
      ?faults ?deadline_budget_ns ?max_restarts ?wal ~wal_snapshot_every:2
      ~engine ()
  in
  Array.iter
    (fun kw ->
      match Server.submit server ~keyword:kw with
      | Ingress.Accepted _ -> ()
      | Ingress.Closed when closed_ok -> ()
      | Ingress.Closed -> Alcotest.fail "closed while still submitting"
      | Ingress.Shed -> Alcotest.fail "shed with capacity = query count")
    queries;
  (server, Server.stop server)

(* A stopped server's per-keyword commit logs. *)
let logs server =
  Array.init
    (Engine.num_keywords (Server.engine server))
    (fun keyword -> Server.commit_log server ~keyword)

(* The same logs from a one-domain [run_partitioned] loop over [queries]
   in arrival order: what a one-lane server commits. *)
let partitioned_loop engine queries =
  let logs = Array.make (Engine.num_keywords engine) [] in
  Array.iter
    (fun kw ->
      logs.(kw) <- Engine.run_partitioned engine ~keyword:kw :: logs.(kw))
    queries;
  Array.map List.rev logs

let temp_dir () =
  let d = Filename.temp_file "essa_test" "" in
  Sys.remove d;
  d

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end
