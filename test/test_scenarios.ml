(* The scenario table: the serving, durability and mechanism cells as
   declarative rows.

   Each row names its cell: the engine shape (with its workload knobs),
   the mechanism, the evaluation cache, the bid-update period, the worker
   counts and the armed faults.  It also lists the invariants the cell
   must satisfy.  Every invariant is checked against an oracle the
   library already has: a one-domain engine loop, [Replay], [Recovery],
   or an uninterrupted twin run.  QCheck2 draws the random
   parts (seed, instance size, keyword count, query count, batch size,
   the fault or snapshot point, written [*] in a fault spec, and the
   bid-update period when the row gives a range) unless the row pins
   them.  Two marks change what a row must do:

   - [broken]: a known caveat.  The row must still fail, and its failure
     message must name the reason; the runner fails when the row passes
     or fails for another reason, so the mark cannot outlive its cause.
   - [expect_abort]: building the cell must raise [Invalid_argument] with
     exactly this message.

   A row named "GROUP CASE" runs as Alcotest case CASE of group GROUP, so
   [test_scenarios.exe test kill-recover] selects one family; each case
   logs its full cell.  To add a cell, add a row: no other code changes
   unless it needs a new invariant. *)

open Essa_serve
open Test_harness
module Workload = Essa_sim.Workload
module Sstore = Essa_strategy.State_store

type shape =
  | Section5 of {
      partitioned : bool;
      method_ : [ `Rh | `Rhtalu ];
      k : int;  (** slots *)
      brand : float;  (** share of advertisers with a brand premium *)
      budgets : float;  (** share of budgeted advertisers *)
    }
  | Zipf of { churn : float; coupled : bool; budgets : float; zipf_s : float }
      (** flat Zipf universe; coupled = advertisers on up to 3 keywords,
          decoupled = on one *)

type mech = Gsp | Vcg | Pay_as_bid | Stable | Reserve_monopoly | Reserve_zeros

type fresh = { f_cache : bool; f_update_every : int }

type invariant =
  | Served_serial
      (** one lane's commit logs and final state = a one-domain
          [run_partitioned] loop, and the replay contract holds at every
          worker count; armed faults that never fire come with a 1 s
          deadline that never trips *)
  | Replay of fresh
      (** [Replay.check_server] on a fresh engine of this configuration *)
  | Rebalanced_replay
      (** [Replay] with a lane rebalance after every batch *)
  | Wal_recover
      (** a served run's WAL restores the served state and its logs pass
          the replay contract *)
  | Continuation
      (** [encode_state] at the drawn point, restore, identical continuation *)
  | Kill_recover of fresh
      (** recover onto this configuration; the combined stream passes the
          replay contract, and on decoupled universes equals an
          uninterrupted run *)
  | Cache_twin  (** cache on = cache off: summaries and counters *)
  | Equals_classic  (** the row's mechanism = [`Classic], every pricing *)
  | Fault_restart
      (** [Served_serial] over the survivors, every failure reported and
          restarted *)

type range = int * int  (** inclusive; [(v, v)] pins [v] *)

type params = {
  seed : int;
  n : int;
  keywords : int;
  count : int;
  query_seed : int;
  max_batch : int;
  point : int;  (** the snapshot or fault point *)
  update_every : int;
}

type draw =
  | Pinned of params  (** [update_every] comes from the row *)
  | Drawn of {
      trials : int;
      seed : range;
      n : range;
      keywords : range;
      count : range;
      max_batch : range;
    }  (** query seed = seed + 1, point in the middle half of the run *)

type row = {
  name : string;
  shape : shape;
  mechanism : mech;
  cache : bool;
  update_every : range;
  workers : int list;
  faults : string list;
  expect : invariant list;
  draw : draw;
  broken : string option;
  expect_abort : string option;
}

(* ------------------------------------------------------------------ *)
(* Building a cell *)

let gen row =
  let open QCheck2.Gen in
  let lo, hi = row.update_every in
  match row.draw with
  | Pinned p -> return { p with update_every = lo }
  | Drawn d ->
      let r (lo, hi) = int_range lo hi in
      let* seed = r d.seed and* n = r d.n and* keywords = r d.keywords
      and* count = r d.count and* max_batch = r d.max_batch
      and* update_every = int_range lo hi in
      let+ point = int_range (count / 4) (3 * count / 4) in
      { seed; n; keywords; count; query_seed = seed + 1; max_batch; point;
        update_every }

let print_params p =
  Printf.sprintf
    "seed=%d n=%d keywords=%d count=%d query_seed=%d max_batch=%d point=%d \
     update_every=%d"
    p.seed p.n p.keywords p.count p.query_seed p.max_batch p.point
    p.update_every

let pricing_mechanism mech ~keywords : Engine.pricing * Engine.mechanism =
  match mech with
  | Gsp -> (`Gsp, `Classic)
  | Vcg -> (`Vcg, `Classic)
  | Pay_as_bid -> (`Pay_as_bid, `Classic)
  | Stable -> (`Gsp, `Stable)
  | Reserve_monopoly -> (`Gsp, `Reserve `Monopoly)
  | Reserve_zeros -> (`Gsp, `Reserve (`Fixed (Array.make keywords 0)))

(* One engine of the cell; the fields a check varies are overridable. *)
type cfg = {
  metrics : Essa_obs.Registry.t option;
  snap : Sstore.snapshot option;  (** rebuild over a decoded image *)
  c_cache : bool;
  c_update_every : int;
  pricing : Engine.pricing;
  mechanism : Engine.mechanism;
}

type cell = {
  row : row;
  p : params;
  queries : int array;
  make : cfg -> Engine.t;
  cfg : cfg;  (** the row's own configuration *)
}

let cell row p =
  let queries, make =
    match row.shape with
    | Section5 { partitioned; method_; k; brand; budgets } ->
        let w =
          Workload.section5 ~seed:p.seed ~n:p.n ~k ~num_keywords:p.keywords
            ~brand_fraction:brand ~budgeted_fraction:budgets ()
        in
        ( Workload.queries w ~seed:p.query_seed ~count:p.count,
          fun c ->
            Workload.make_engine ?metrics:c.metrics ~partitioned
              ~cache:c.c_cache ~update_every:c.c_update_every
              ~pricing:c.pricing ~mechanism:c.mechanism
              ?states:(Option.map Sstore.dense_states c.snap)
              w ~method_:(method_ :> Engine.method_) )
    | Zipf { churn; coupled; budgets; zipf_s } ->
        let u =
          Workload.universe
            ~max_keywords_per_adv:(if coupled then 3 else 1)
            ~budgeted_fraction:budgets ~keywords:p.keywords ~n:p.n ~zipf_s
            ~seed:p.seed ()
        in
        ( Workload.universe_queries u ~seed:p.query_seed ~count:p.count,
          fun c ->
            let store =
              match c.snap with
              | None -> Workload.universe_store ~churn u ()
              | Some s ->
                  let store = Sstore.of_snapshot_flat s in
                  if churn > 0.0 then
                    Workload.universe_attach_churn u store ~churn;
                  store
            in
            Workload.make_flat_engine ?metrics:c.metrics ~cache:c.c_cache
              ~update_every:c.c_update_every ~pricing:c.pricing
              ~mechanism:c.mechanism u ~store )
  in
  let pricing, mechanism = pricing_mechanism row.mechanism ~keywords:p.keywords in
  let cfg =
    {
      metrics = None;
      snap = None;
      c_cache = row.cache;
      c_update_every = p.update_every;
      pricing;
      mechanism;
    }
  in
  { row; p; queries; make; cfg }

let own c = { f_cache = c.cfg.c_cache; f_update_every = c.cfg.c_update_every }

let engine_of c f snap =
  c.make
    { c.cfg with c_cache = f.f_cache; c_update_every = f.f_update_every; snap }

let faults c =
  List.map
    (fun spec ->
      let spec =
        String.concat (string_of_int c.p.point) (String.split_on_char '*' spec)
      in
      match Fault.parse spec with Ok s -> s | Error e -> failwith e)
    c.row.faults

let run engine kw =
  if Engine.partitioned engine then Engine.run_partitioned engine ~keyword:kw
  else Engine.run_auction engine ~keyword:kw

let serve_cell ?closed_ok ?balance ?(faults = []) ?deadline_budget_ns ?wal c
    ~workers ~engine queries =
  serve ?closed_ok ?balance ~faults:(Fault.create faults)
    ?deadline_budget_ns ?wal ~workers ~max_batch:c.p.max_batch ~engine queries

let failf fmt = Printf.ksprintf failwith fmt
let check_true what ok = if not ok then failwith what

let check_replay what (r : Replay.report) =
  if not (Replay.ok r) then
    failf "%s: replay %b clocks %b conservation %b budgets %b" what r.replay_ok
      r.clocks_monotone r.spend_conserved r.budgets_respected

(* A flat partition's slot -> advertiser map (empty for dense engines). *)
let members engine ~keyword =
  if Engine.is_flat engine then
    (Sstore.flat_view (Roi_fleet.store_of (Engine.fleet engine)) ~keyword)
      .Sstore.fv_members
  else [||]

(* ------------------------------------------------------------------ *)
(* The invariants *)

(* The per-keyword contract of a stopped server holding [count]
   summaries: keyword-pure logs that partition them, replayed on a fresh
   engine of configuration [f]. *)
let check_logs ~at c f server (st : Server.stats) ~count =
  let logged = ref 0 in
  for kw = 0 to c.p.keywords - 1 do
    let log = Server.commit_log server ~keyword:kw in
    logged := !logged + List.length log;
    check_true (at "keyword-pure logs")
      (List.for_all (fun (s : Engine.summary) -> s.keyword = kw) log)
  done;
  check_true (at "logs partition the stream") (!logged = count);
  let r = Replay.check_server server ~fresh:(engine_of c f None) in
  check_replay (at "replay contract") r;
  check_true (at "replay covers the stream, log revenue = served")
    (r.auctions_checked = count && r.log_revenue = st.revenue)

let served_serial ~restart c =
  let faults = faults c in
  let failing =
    List.filter_map
      (function Fault.Engine_exn { seq } -> Some seq | _ -> None)
      faults
  in
  let survivors =
    Array.of_list
      (List.filteri (fun i _ -> not (List.mem i failing))
         (Array.to_list c.queries))
  in
  let deadline_budget_ns =
    if (not restart) && faults <> [] then Some 1_000_000_000 else None
  in
  List.iter
    (fun workers ->
      let engine = c.make c.cfg in
      let server, st =
        serve_cell ~faults ?deadline_budget_ns c ~workers ~engine c.queries
      in
      let at what = Printf.sprintf "%s (workers=%d)" what workers in
      if workers = 1 then begin
        let e = c.make c.cfg in
        let loop = partitioned_loop e survivors in
        check_true (at "commit logs and final state = one-domain loop")
          (logs server = loop && fingerprint engine = fingerprint e)
      end;
      check_true (at "every query committed")
        (st.committed = Array.length c.queries && st.degraded = 0);
      let failed = List.length failing in
      if restart then
        check_true (at "one report and one restart per injected failure")
          (st.failed = failed && st.lane_restarts = failed && st.skipped = 0
          && List.map (fun (e : Server.error) -> (e.seq, e.keyword, e.exn))
               st.errors
             = List.map (fun s -> (s, c.queries.(s), Fault.Injected s)) failing
          && Array.fold_left ( + ) 0 (Server.lane_restarts server) = failed
          && List.for_all
               (fun name -> counter (Server.metrics server) name = failed)
               [ "essa.serve.lane_failures"; "essa.serve.lane_restarts" ])
      else check_true (at "nothing failed") (st.failed = 0);
      check_logs ~at c (own c) server st ~count:(Array.length survivors))
    c.row.workers

let replay ?balance f c =
  let count = Array.length c.queries in
  List.iter
    (fun workers ->
      let server, st =
        serve_cell ?balance c ~workers ~engine:(c.make c.cfg) c.queries
      in
      let at what = Printf.sprintf "%s (workers=%d)" what workers in
      check_true (at "all committed") (st.committed = count);
      if balance = Some true then
        check_true (at "rebalanced at least once") (st.rebalances > 0);
      check_logs ~at c f server st ~count)
    c.row.workers

let wal_recover c =
  List.iter
    (fun workers ->
      let at what = Printf.sprintf "%s (workers=%d)" what workers in
      let dir = temp_dir () in
      Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
      let wal = Wal.create_writer ~dir () in
      let engine = c.make c.cfg in
      let _, st = serve_cell ~wal c ~workers ~engine c.queries in
      Wal.close_writer wal;
      let rc =
        Recovery.restore ~dir ~num_keywords:c.p.keywords
          ~engine_of:(engine_of c (own c)) ()
      in
      check_true (at "every query persisted, tail replays clean")
        (st.committed = Array.length c.queries
        && Array.length rc.persisted = st.committed
        && rc.tail_mismatches = 0);
      check_true (at "recovered state = served state")
        (fingerprint rc.engine = fingerprint engine);
      check_replay (at "WAL logs")
        (Replay.check ~served:rc.engine ~fresh:(engine_of c (own c) None)
           ~log:rc.logs))
    c.row.workers

let continuation c =
  let engine = c.make c.cfg and m = c.p.point in
  for i = 0 to m - 1 do ignore (run engine c.queries.(i)) done;
  let buf = Buffer.create 4096 in
  Engine.encode_state engine buf;
  let r = Essa_util.Bincode.reader (Buffer.contents buf) in
  let snap = Sstore.decode r in
  let engine' = c.make { c.cfg with snap = Some snap } in
  Sstore.apply_meta snap (Roi_fleet.store_of (Engine.fleet engine'));
  Engine.restore_extras engine' r;
  check_true "blob fully consumed, auctions restored"
    (Essa_util.Bincode.remaining r = 0
    && Engine.auctions_run engine = Engine.auctions_run engine');
  for i = m to Array.length c.queries - 1 do
    if run engine c.queries.(i) <> run engine' c.queries.(i) then
      failf "summary %d (keyword %d) diverged after restore" i c.queries.(i)
  done;
  check_true "total revenue"
    (Engine.total_revenue engine = Engine.total_revenue engine')

(* Every spend total [adv]'s global cell can show at some interleaving
   of the keyword logs [combined]: any prefix of its charges on each
   keyword, except that keyword [kw] is fixed at its first [pos]
   auctions. *)
let reachable_spend combined ~adv ~kw ~pos =
  let charge (s : Engine.summary) =
    let c = ref 0 in
    Array.iteri
      (fun j a -> if a = Some adv && s.clicks.(j) then c := !c + s.prices.(j))
      s.assignment;
    !c
  in
  let prefixes log =
    List.sort_uniq compare
      (List.fold_left (fun acc s -> (List.hd acc + charge s) :: acc) [ 0 ] log)
  in
  let sums = ref [ 0 ] in
  Array.iteri
    (fun k log ->
      let choices =
        if k = kw then
          [ List.fold_left ( + ) 0
              (List.map charge (List.filteri (fun i _ -> i < pos) log)) ]
        else prefixes log
      in
      sums :=
        List.sort_uniq compare
          (List.concat_map (fun s -> List.map (( + ) s) choices) !sums))
    combined;
  !sums

(* Why a decoupled keyword stream left its uninterrupted baseline: rerun
   the baseline to the diverging auction, find the first spend-witness
   cell that differs, and test it for churn coupling (DESIGN.md §14): the
   cell is its advertiser's global spend, the served run interleaved its
   charges on other keywords (at any time, so also before churn retired
   it there) differently, and the value is some sum of prefixes of its
   own charges. *)
let explain_divergence c ~f ~kw ~pos ~combined (got : Engine.summary) =
  let baseline = engine_of c f None in
  let seen = ref 0 and i = ref 0 and want = ref None in
  while !want = None do
    let q = c.queries.(!i) in
    let s = run baseline q in
    if q = kw then begin
      if !seen = pos then want := Some s;
      incr seen
    end;
    incr i
  done;
  match (got.spend_snapshot, (Option.get !want).spend_snapshot) with
  | Some a, Some b when Array.length a = Array.length b && a <> b ->
      let slot = ref 0 in
      while a.(!slot) = b.(!slot) do incr slot done;
      let slot = !slot in
      let adv = (members baseline ~keyword:kw).(slot) in
      let own =
        if adv < 0 then a.(slot) = 0
        else List.mem a.(slot) (reachable_spend combined ~adv ~kw ~pos)
      in
      let charged (s : Engine.summary) =
        Array.exists2 (fun cell clicked -> cell = Some adv && clicked)
          s.assignment s.clicks
      in
      let on =
        List.filter
          (fun k -> k = kw || List.exists charged combined.(k))
          (List.init c.p.keywords Fun.id)
      in
      Printf.sprintf
        "%s spend witness: %s (slot %d reads %d, uninterrupted %d; \
         advertiser %d charged on keywords %s)"
        (if List.length on > 1 then "cross-enrolled" else "keyword-local")
        (if own then "its own charges in another interleaving"
         else "not its own charges")
        slot a.(slot) b.(slot) adv
        (String.concat "," (List.map string_of_int on))
  | _ -> "equal spend witnesses"

let kill_recover f c =
  let nkw = c.p.keywords in
  List.iter
    (fun workers ->
      let at what = Printf.sprintf "%s (workers=%d)" what workers in
      let dir = temp_dir () in
      Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
      let wal = Wal.create_writer ~dir () in
      let _, st =
        serve_cell ~closed_ok:true ~wal ~faults:(faults c) c ~workers
          ~engine:(c.make c.cfg) c.queries
      in
      Wal.close_writer wal;
      check_true (at "kill fired and lost queries") (st.killed && st.skipped > 0);
      let rc =
        Recovery.restore ~dir ~num_keywords:nkw ~engine_of:(engine_of c f) ()
      in
      check_true (at "tail replays clean") (rc.tail_mismatches = 0);
      let persisted = Hashtbl.create 1024 in
      Array.iter (fun s -> Hashtbl.replace persisted s ()) rc.persisted;
      let lost =
        List.filteri
          (fun i _ -> not (Hashtbl.mem persisted i))
          (Array.to_list c.queries)
      in
      let wal2 = Wal.create_writer ~dir () in
      let server2, st2 =
        serve_cell ~wal:wal2 c ~workers ~engine:rc.engine (Array.of_list lost)
      in
      Wal.close_writer wal2;
      check_true (at "nothing lost overall")
        (Array.length rc.persisted + st2.committed = Array.length c.queries);
      let combined =
        Array.init nkw (fun kw ->
            rc.logs.(kw) @ Server.commit_log server2 ~keyword:kw)
      in
      check_replay
        (at "combined stream fails the replay contract")
        (Replay.check ~served:rc.engine ~fresh:(engine_of c f None)
           ~log:combined);
      match c.row.shape with
      | Zipf { coupled = false; _ } ->
          let baseline = engine_of c f None in
          let expect = Array.make nkw [] in
          Array.iter
            (fun kw -> expect.(kw) <- run baseline kw :: expect.(kw))
            c.queries;
          Array.iteri
            (fun kw got ->
              List.iteri
                (fun pos (s, e) ->
                  if s <> e then
                    failf
                      "%s: keyword %d summary %d diverged from the serial \
                       baseline: %s"
                      (at "kill->recover = uninterrupted") kw pos
                      (explain_divergence c ~f ~kw ~pos ~combined s))
                (List.combine got (List.rev expect.(kw))))
            combined;
          check_true (at "revenue = uninterrupted")
            (Engine.total_revenue baseline = Engine.total_revenue rc.engine)
      | _ -> ())
    c.row.workers

let twin c cfg =
  let reg = Essa_obs.Registry.create () in
  let engine = c.make { cfg with metrics = Some reg } in
  (Array.map (run engine) c.queries, reg)

let cache_twin c =
  let s_off, r_off = twin c { c.cfg with c_cache = false }
  and s_on, r_on = twin c { c.cfg with c_cache = true } in
  check_true "summaries identical" (s_off = s_on);
  check_true "counters identical"
    (counters ~except_cache:true r_off = counters ~except_cache:true r_on);
  match c.row.shape with
  | Section5 _ when c.p.update_every >= 4 ->
      check_true "decimated dense runs hit the cache"
        (counter r_on "essa.engine.cache_hits" > 0)
  | _ -> ()

let equals_classic c =
  let pricings =
    match c.row.shape with
    | Section5 { partitioned = false; _ } -> [ `Gsp; `Vcg ]
    | _ -> [ `Gsp ]
  in
  List.iter
    (fun pricing ->
      let s_c, r_c = twin c { c.cfg with pricing; mechanism = `Classic }
      and s_m, r_m = twin c { c.cfg with pricing } in
      check_true "summaries and counters = classic"
        (s_c = s_m && counters r_c = counters r_m))
    pricings

let check c = function
  | Served_serial -> served_serial ~restart:false c
  | Fault_restart -> served_serial ~restart:true c
  | Replay f -> replay f c
  | Rebalanced_replay -> replay ~balance:true (own c) c
  | Wal_recover -> wal_recover c
  | Continuation -> continuation c
  | Kill_recover f -> kill_recover f c
  | Cache_twin -> cache_twin c
  | Equals_classic -> equals_classic c

(* ------------------------------------------------------------------ *)
(* The runner *)

let contains s sub =
  let n = String.length sub in
  let rec at i =
    i + n <= String.length s && (String.sub s i n = sub || at (i + 1))
  in
  at 0

let mech_name = function
  | Gsp -> "gsp"
  | Vcg -> "vcg"
  | Pay_as_bid -> "pay-as-bid"
  | Stable -> "stable"
  | Reserve_monopoly -> "reserve-monopoly"
  | Reserve_zeros -> "reserve-fixed-zeros"

(* The cell's coordinates, printed into the case's log. *)
let describe row p =
  let shape =
    match row.shape with
    | Section5 { partitioned; method_; k; brand; budgets } ->
        Printf.sprintf "section5-%s/%s k=%d brand=%g budgets=%g"
          (if partitioned then "dense" else "serial")
          (match method_ with `Rh -> "rh" | `Rhtalu -> "rhtalu")
          k brand budgets
    | Zipf { churn; coupled; budgets; zipf_s } ->
        Printf.sprintf "zipf-%s s=%g churn=%g budgets=%g"
          (if coupled then "coupled" else "decoupled")
          zipf_s churn budgets
  in
  Printf.sprintf "%s %s cache=%b update_every=%d..%d workers=[%s] faults=[%s] %s"
    shape (mech_name row.mechanism) row.cache (fst row.update_every)
    (snd row.update_every)
    (String.concat ";" (List.map string_of_int row.workers))
    (String.concat ";" row.faults) (print_params p)

let run_cell row p =
  print_endline (describe row p);
  let c = cell row p in
  let checks () = List.iter (check c) row.expect in
  match row.broken with
  | None -> checks ()
  | Some reason -> (
      match checks () with
      | () -> failf "%s passes: remove its broken mark (%S)" row.name reason
      | exception Failure m when contains m reason ->
          print_endline ("broken as declared: " ^ m)
      | exception Failure m ->
          failf "%s fails for another reason than %S: %s" row.name reason m)

let case row =
  let i = String.index row.name ' ' in
  let group = String.sub row.name 0 i
  and case = String.sub row.name (i + 1) (String.length row.name - i - 1) in
  let fn =
    match (row.expect_abort, row.draw) with
    | Some msg, _ ->
        let p = QCheck2.Gen.generate1 ~rand:(Random.State.make [| 0 |]) (gen row) in
        Alcotest.test_case case `Quick (fun () ->
            Alcotest.check_raises row.name (Invalid_argument msg) (fun () ->
                let c = cell row p in
                let engine = c.make c.cfg in
                ignore (Server.stop (Server.create ~workers:1 ~engine ()))))
    | None, Pinned _ ->
        if fst row.update_every <> snd row.update_every then
          invalid_arg (row.name ^ ": a pinned row pins update_every");
        let p = QCheck2.Gen.generate1 (gen row) in
        Alcotest.test_case case `Quick (fun () -> run_cell row p)
    | None, Drawn { trials; _ } ->
        QCheck_alcotest.to_alcotest
          (QCheck2.Test.make ~count:trials ~name:case ~print:print_params
             (gen row) (fun p ->
               run_cell row p;
               true))
  in
  (group, fn)

(* ------------------------------------------------------------------ *)
(* The table *)

let serial ?(k = 4) ?(brand = 0.0) ?(budgets = 0.0) method_ =
  Section5 { partitioned = false; method_; k; brand; budgets }
let dense ?(k = 4) ?(brand = 0.0) ?(budgets = 0.0) method_ =
  Section5 { partitioned = true; method_; k; brand; budgets }
let flat ?(churn = 0.0) ?(budgets = 0.0) ?(zipf_s = 1.0) ~coupled () =
  Zipf { churn; coupled; budgets; zipf_s }
let pin ?query_seed seed n keywords count max_batch point =
  let query_seed = Option.value query_seed ~default:(seed + 1) in
  Pinned { seed; n; keywords; count; query_seed; max_batch; point;
           update_every = 1 }
let drawn ?(seed = (1, 1000)) ?(max_batch = (1, 1)) ~n ~keywords ~count trials =
  Drawn { trials; seed; n; keywords; count; max_batch }
(* The random Section V instance shapes of the served and replay
   properties, and the fixed sizes of the mechanism properties. *)
let shapes ?(max_batch = (1, 9)) trials =
  drawn ~n:(8, 40) ~keywords:(2, 6) ~count:(30, 90) ~max_batch trials
let mech_dense trials =
  drawn ~seed:(0, 10_000) ~n:(40, 40) ~keywords:(6, 6) ~count:(300, 300) trials
let mech_flat trials =
  drawn ~seed:(0, 10_000) ~n:(60, 60) ~keywords:(12, 12) ~count:(300, 300)
    trials
let every n = (n, n)
let fresh f_cache f_update_every = { f_cache; f_update_every }

let base =
  { name = ""; shape = serial `Rh; mechanism = Gsp; cache = true;
    update_every = every 1; workers = [ 1; 2; 3; 4 ]; faults = [];
    expect = []; draw = pin 1 40 5 10 1 0; broken = None;
    expect_abort = None }

(* [row] under another mechanism, named by a suffix; [variants] gives
   the stable and reserve ones, [sweep] the row and both. *)
let under ?workers mechanism row =
  let label =
    if mechanism = Reserve_monopoly then "reserve" else mech_name mechanism
  in
  { row with name = row.name ^ ", " ^ label; mechanism;
    workers = Option.value workers ~default:row.workers }
let variants ?workers row =
  List.map (fun m -> under ?workers m row) [ Stable; Reserve_monopoly ]
let sweep row = row :: variants row

(* Each family keeps the workload of the cells it replaces. *)
let eq_rh =
  { base with name = "equivalence RH: served = serial";
    shape = dense ~brand:0.25 ~budgets:0.25 `Rh; workers = [ 1; 2; 3 ];
    expect = [ Served_serial ]; draw = pin ~query_seed:101 11 40 6 200 7 0 }
let eq_rhtalu =
  { eq_rh with name = "equivalence RHTALU: served = serial";
    shape = dense ~brand:0.25 ~budgets:0.25 `Rhtalu;
    draw = pin ~query_seed:102 12 40 6 200 7 0 }
let eq_prop =
  { eq_rh with name = "equivalence served stream = serial stream";
    shape = dense ~k:3 ~budgets:0.2 `Rh; draw = shapes 6 }
let eq_prop_rhtalu =
  { eq_prop with name = "equivalence served stream = serial stream, RHTALU";
    shape = dense ~k:3 ~budgets:0.2 `Rhtalu }

let zeros =
  { base with name = "equivalence `Reserve (`Fixed 0s) = `Classic (";
    shape = serial ~budgets:0.3 `Rhtalu; mechanism = Reserve_zeros;
    update_every = (1, 16); workers = []; expect = [ Equals_classic ];
    draw = mech_dense 10 }
let twin =
  { zeros with name = "cache cache on = cache off ("; expect = [ Cache_twin ];
    draw = mech_dense 8 }
let mech_churn = flat ~churn:0.05 ~budgets:0.3 ~zipf_s:1.1 ~coupled:true ()

let pk_rh =
  { base with name = "per-keyword RH: replay + invariants";
    shape = dense ~budgets:0.4 `Rh;
    expect = [ Replay (fresh true 1) ];
    draw = pin ~query_seed:62 61 40 6 240 7 0 }
let pk_rhtalu =
  { pk_rh with name = "per-keyword RHTALU: replay + invariants";
    shape = dense ~budgets:0.4 `Rhtalu;
    draw = pin ~query_seed:64 63 40 6 240 7 0 }
let pk_prop =
  { pk_rh with name = "per-keyword per-keyword replay contract holds";
    shape = dense ~k:3 ~budgets:0.3 `Rh; workers = [ 1; 2; 3 ];
    draw = shapes ~max_batch:(5, 5) 4 }
let pk_prop_rhtalu =
  { pk_prop with name = "per-keyword per-keyword replay contract holds, RHTALU";
    shape = dense ~k:3 ~budgets:0.3 `Rhtalu }

(* Served budgets on a churning, coupled flat universe: the universe of
   the coupled kill->recover rows, served whole.  Budget-exhausted
   advertisers must stay out at every lane count and batch size. *)
let pk_flat_churn =
  { pk_rh with name = "per-keyword flat churn budgets: replay contract";
    shape = flat ~churn:0.2 ~budgets:0.25 ~coupled:true ();
    draw = pin 1 40 5 400 16 0 }

let rebalance =
  { base with name = "balance forced rebalance keeps FIFO + replay";
    shape = flat ~churn:0.1 ~zipf_s:1.1 ~coupled:true ();
    expect = [ Rebalanced_replay ];
    draw = pin ~query_seed:82 81 60 12 300 16 0 }
let decimated =
  { rebalance with name = "balance cached decimated serving replays";
    shape = flat ~churn:0.05 ~budgets:0.25 ~zipf_s:1.1 ~coupled:true ();
    update_every = every 8; expect = [ Replay (fresh false 3) ];
    draw = pin ~query_seed:92 91 60 12 300 16 0 }

let wal =
  { base with name = "wal served run recovers and replays";
    shape = flat ~coupled:true (); workers = [ 2 ];
    expect = [ Wal_recover ]; draw = pin 1 40 5 200 16 0 }

let cont =
  { base with shape = flat ~coupled:true (); cache = false;
    workers = []; expect = [ Continuation ];
    draw = pin 11 40 5 400 16 150 }
let cont_dense = { cont with draw = pin 7 60 6 300 16 120 }
let continuations =
  [
    { cont with name = "continuation flat plain" };
    { cont with name = "continuation flat churn";
      shape = flat ~churn:0.2 ~coupled:true () };
    { cont with name = "continuation flat churn cache+decimation";
      shape = flat ~churn:0.2 ~coupled:true (); cache = true;
      update_every = every 8 };
    { cont_dense with name = "continuation dense rh"; shape = dense ~k:5 `Rh };
    { cont_dense with name = "continuation dense rhtalu budgets cache";
      shape = dense ~k:5 ~budgets:0.3 `Rhtalu; cache = true };
    { cont_dense with
      name = "continuation dense rhtalu budgets cache+decimation";
      shape = dense ~k:5 ~budgets:0.3 `Rhtalu; cache = true;
      update_every = every 8 };
  ]

let decoupled =
  { base with shape = flat ~churn:0.1 ~coupled:false ();
    faults = [ "kill@*" ]; expect = [ Kill_recover (fresh true 1) ];
    draw = pin 21 48 6 400 16 150 }
let coupled =
  { decoupled with shape = flat ~churn:0.2 ~budgets:0.25 ~coupled:true ();
    draw = pin 1 40 5 400 16 150 }
let cache_flip =
  { decoupled with
    name = "kill-recover dense cache-on kill, cache-off recovery";
    shape = dense ~k:5 ~budgets:0.3 `Rhtalu; update_every = every 8;
    workers = [ 2 ]; expect = [ Kill_recover (fresh false 8) ];
    draw = pin 7 60 6 500 16 200 }
let by_workers name row =
  List.map
    (fun w ->
      { row with name = Printf.sprintf "%s (workers=%d)" name w; workers = [ w ] })
    [ 1; 2; 4 ]
(* A churn arrival enrolls a uniform advertiser, so a churned
   "decoupled" universe is only approximately decoupled (DESIGN.md §14):
   with two or more lanes the runs below diverge through such an
   advertiser's global spend cell, whose value is its own charges in
   another interleaving.  One lane runs its work in arrival order, so it
   replays the uninterrupted interleaving exactly and is not broken. *)
let coupling = "cross-enrolled spend witness: its own charges"
let churn_coupled name row =
  List.map
    (fun r -> if r.workers = [ 1 ] then r else { r with broken = Some coupling })
    (by_workers name row)

let restart =
  { base with name = "supervision crash -> restart -> stream completes";
    shape = dense ~budgets:0.25 `Rhtalu; faults = [ "exn@*" ];
    expect = [ Fault_restart ]; draw = pin ~query_seed:62 61 40 6 120 5 37 }

let abort msg = { base with workers = []; expect_abort = Some msg }

let table =
  List.concat
    [
      sweep eq_rh;
      sweep eq_rhtalu;
      [ eq_prop; eq_prop_rhtalu ];
      variants { eq_prop with draw = shapes 2 };
      variants { eq_prop_rhtalu with draw = shapes 2 };
      [
        under ~workers:[ 2; 4 ] Vcg eq_rhtalu;
        under ~workers:[ 2; 4 ] Pay_as_bid eq_rh;
        { zeros with name = zeros.name ^ "dense serial, gsp+vcg)" };
        { zeros with name = zeros.name ^ "dense partitioned, gsp)";
          shape = dense ~budgets:0.3 `Rhtalu };
        { zeros with name = zeros.name ^ "flat partitioned, churn)";
          shape = mech_churn; draw = mech_flat 10 };
      ];
      sweep pk_rh;
      sweep pk_rhtalu;
      [ pk_prop; pk_prop_rhtalu ];
      variants { pk_prop with draw = shapes ~max_batch:(5, 5) 2 };
      variants { pk_prop_rhtalu with draw = shapes ~max_batch:(5, 5) 2 };
      [
        under ~workers:[ 2 ] Vcg pk_rhtalu;
        under ~workers:[ 2 ] Pay_as_bid pk_rh;
        { pk_rhtalu with
          name = "per-keyword RHTALU cached decimated, replayed cache-off";
          update_every = every 8; workers = [ 1; 3 ];
          expect = [ Replay (fresh false 3) ] };
      ];
      sweep pk_flat_churn;
      [ under ~workers:[ 2 ] Pay_as_bid pk_flat_churn ];
      sweep rebalance;
      sweep decimated;
      [ under ~workers:[ 2 ] Pay_as_bid decimated ];
      sweep wal;
      List.concat_map sweep continuations;
      [ under Vcg (List.nth continuations 4) ];
      by_workers "kill-recover decoupled bit-identity" decoupled;
      by_workers "kill-recover coupled replay contract" coupled;
      sweep cache_flip;
      churn_coupled "kill-recover decoupled churn, stable"
        { decoupled with mechanism = Stable };
      churn_coupled "kill-recover decoupled churn, reserve"
        { decoupled with mechanism = Reserve_monopoly };
      [
        { decoupled with
          name = "kill-recover decoupled churn, classic at a coupling seed";
          workers = [ 2 ]; draw = pin 1 41 4 150 4 37; broken = Some coupling };
      ];
      variants ~workers:[ 1; 2; 4 ]
        { decoupled with name = "kill-recover decoupled churn-free";
          shape = flat ~coupled:false () };
      variants ~workers:[ 1; 2; 4 ] { coupled with name = "kill-recover coupled" };
      [
        { twin with name = twin.name ^ "`Stable, dense)"; mechanism = Stable };
        { twin with name = twin.name ^ "`Reserve `Monopoly, dense)";
          mechanism = Reserve_monopoly };
        { twin with name = twin.name ^ "`Stable, flat churn)";
          shape = mech_churn; mechanism = Stable; draw = mech_flat 6 };
        { twin with name = twin.name ^ "`Reserve `Monopoly, flat churn)";
          shape = mech_churn; mechanism = Reserve_monopoly; draw = mech_flat 6 };
        restart;
        { restart with name = "supervision armed-but-unfired = bit-identical";
          faults = [ "exn@10000" ]; expect = [ Served_serial ];
          draw = pin ~query_seed:65 61 40 6 90 5 0 };
        under ~workers:[ 1; 2 ] Stable restart;
        under ~workers:[ 1; 2 ] Reserve_monopoly restart;
        { (abort "Engine.create_flat: VCG needs the dense pricing view") with
          name = "abort flat vcg"; shape = flat ~coupled:true (); mechanism = Vcg };
        { (abort
             "Server.create: serial engine (serve a partitioned one: \
              Engine.create ~partitioned:true or Engine.create_flat)") with
          name = "abort per-keyword commit on a serial engine" };
      ];
    ]

let () =
  let groups = ref [] in
  List.iter
    (fun row ->
      let group, test = case row in
      match List.assoc_opt group !groups with
      | Some tests -> tests := test :: !tests
      | None -> groups := (group, ref [ test ]) :: !groups)
    table;
  Alcotest.run "scenarios"
    (List.rev_map (fun (group, tests) -> (group, List.rev !tests)) !groups)
