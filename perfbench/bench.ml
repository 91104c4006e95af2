(* The serving benchmark: one workload per run, driven through the real
   [Essa_serve.Server] pipeline on unmodified library code.

     bench.exe --workload NAME [--seed N] [--universe-seed U] --seconds S
               --trace 0|1

   A run sets the workload up several times (the median is [setup_s]),
   then measures on the last set-up, in [rounds] interleaved rounds:

   - a closed-loop chunk: a fixed number of auctions with a fixed window
     of queries in flight — sustained capacity ([aps]);
   - a crash restore from the WAL a crash after the chunk would leave
     ([restore_s]);
   - an open-loop segment: queries offered at a fixed rate by the
     sleeping generator ({!Open_loop}) — per-query latency from due time
     to commit ([lat_*]).

   Every count derives from S and the seeds, so every commit of the
   program does identical work.  Each run checks its outputs (one commit
   per accepted query in per-keyword FIFO order, commit-log replay on a
   fresh engine, restores that reproduce the served revenue); a failed
   check makes the run incorrect.  With [--trace 1] the run also replays
   the closed-loop stream through the layers' public functions one call
   at a time, recording a span per call, and prints per-layer metrics.
   NOTES.md says why each workload exists. *)

module W = Essa_sim.Workload
module Srv = Essa_serve.Server

(* ------------------------------------------------------------------ *)
(* Workloads *)

type shape =
  | Zipf of { cache : bool; update_every : int; wal : bool }
  | Section5

type workload = {
  name : string;
  shape : shape;
  warmup : int;  (* closed-loop auctions served during set-up *)
  closed_per_s : int;  (* closed-loop auctions per second of --seconds *)
  window : int;  (* closed-loop queries in flight *)
  rate : int;  (* open-loop offered rate, queries/s *)
  setups : int;  (* set-ups per run; [setup_s] is their median *)
  restore_tail : bool;
      (* the crash WAL holds a snapshot from before the closed-loop chunk
         and the chunk's summaries, not a snapshot alone *)
  queue_capacity : int;
  max_batch : int;
  balance : bool;
}

let zipf_keywords = 10_000
let zipf_n = 100_000
let zipf_s = 1.1
let churn = 0.02
let section5_n = 1000
let section5_keywords = 10
let section5_slots = 15
let rebalance_every = 2
let wal_snapshot_every = 8
let rounds = 10

let zipf name ~cache ~update_every ~wal ~closed_per_s ~rate =
  {
    name;
    shape = Zipf { cache; update_every; wal };
    (* Past the first WAL snapshot on zipf-durable (a snapshot is taken
       at the ninth batch of at most 256), so the WAL writer's buffers
       have their steady size when [state_mb] is read. *)
    warmup = 4096;
    closed_per_s;
    window = 512;
    rate;
    setups = 3;
    restore_tail = false;
    queue_capacity = 1024;
    max_batch = 256;
    balance = true;
  }

let workloads =
  [
    zipf "zipf-cold" ~cache:false ~update_every:1 ~wal:false
      ~closed_per_s:4000 ~rate:4500;
    zipf "zipf-cached" ~cache:true ~update_every:16 ~wal:false
      ~closed_per_s:20000 ~rate:12000;
    (* Its closed loop holds a dozen snapshots (one per 8 batches of up
       to 256), so where the chunks fall in the cadence barely moves
       [aps]. *)
    zipf "zipf-durable" ~cache:false ~update_every:1 ~wal:true
      ~closed_per_s:3000 ~rate:2000;
    {
      name = "section5-dense";
      shape = Section5;
      warmup = 1000;
      closed_per_s = 1500;
      window = 16;
      (* A fifth of capacity, not a half: on a shared 2-vCPU host a slow
         stretch can halve section5's capacity, and at a third or a half
         of it the open loop then saturates. *)
      rate = 800;
      (* A set-up takes ~0.3 s, so a run can afford more of them. *)
      setups = 5;
      (* A snapshot alone restores in ~50 ms, too short to time steadily
         on a shared host; with the chunk's ~1200 auctions replayed on top
         a restore takes ~0.3 s. *)
      restore_tail = true;
      queue_capacity = 256;
      max_batch = 32;
      balance = false;
    };
  ]

let durable w = match w.shape with Zipf { wal; _ } -> wal | Section5 -> false

(* ------------------------------------------------------------------ *)
(* Small helpers *)

let now () = Int64.to_int (Essa_util.Timing.now_ns ())
let seconds_since t0 = float_of_int (now () - t0) /. 1e9
let median = Essa_util.Stats.median
let percentile = Essa_util.Stats.percentile
let percentile_int xs q = percentile (Array.map float_of_int xs) q

let counter reg name =
  match Essa_obs.Registry.find reg name with
  | Some (Essa_obs.Registry.Counter c) -> Essa_obs.Counter.value c
  | _ -> 0

let histogram reg name =
  match Essa_obs.Registry.find reg name with
  | Some (Essa_obs.Registry.Histogram h) -> h
  | _ -> failwith ("no histogram " ^ name)

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter
        (fun f -> remove_tree (Filename.concat path f))
        (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let dir_bytes dir =
  Array.fold_left
    (fun acc f -> acc + (Unix.stat (Filename.concat dir f)).Unix.st_size)
    0 (Sys.readdir dir)

let out_dir = ".perfbench"

(* ------------------------------------------------------------------ *)
(* Set-up *)

(* Commit stamps, written by the lane in [on_commit]: the keyword and the
   clock at commit.  Per-keyword FIFO lets the open-loop phase pair the
   m-th commit of a keyword with the m-th accepted submission of it.
   With [restore_tail] the summaries are kept too, for the crash WAL; the
   server keeps them in its commit logs anyway. *)
type commits = {
  next : int Atomic.t;
  ckw : int array;
  cns : int array;
  mutable sums : Essa.Engine.summary array;
}

(* An engine, the server over it and the server's WAL, if any. *)
type stack = {
  engine : Essa.Engine.t;
  server : Srv.t;
  wal : Essa_serve.Wal.writer option;
}

type rig = {
  registry : Essa_obs.Registry.t;
  closed : stack;  (* the closed loop and the crash restores *)
  open_ : stack;  (* the open loop: [closed] itself but on zipf-durable *)
  queries : int array;
  fresh : unit -> Essa.Engine.t;  (* an unused engine with the same inputs *)
  engine_of : Essa_strategy.State_store.snapshot option -> Essa.Engine.t;
  commits : commits;
  parts : float array;  (* universe, store, engine, server + warmup; s *)
}

let stacks rig =
  if rig.open_ == rig.closed then [ rig.closed ] else [ rig.closed; rig.open_ ]

(* zipf-durable serves its open loop from a second stack, whose WAL takes
   every commit but no snapshots.  The snapshot cadence counts batches,
   and open-loop arrivals make a batch a millisecond, so on the closed
   loop's stack a full-store snapshot would stall nearly every query. *)
let num_stacks w = if durable w then 2 else 1
let wal_dir w i = Filename.concat out_dir (Printf.sprintf "wal-%s-%d" w.name i)

let setup w ~seed ~universe_seed ~total =
  let t0 = now () in
  let registry = Essa_obs.Registry.create () in
  (* [inputs ()] builds the advertiser state and returns the engine
     constructor over it, so the two steps are timed apart. *)
  let queries, inputs, fresh, engine_of =
    match w.shape with
    | Zipf z ->
        let u =
          W.universe ~keywords:zipf_keywords ~n:zipf_n ~zipf_s
            ~seed:universe_seed ()
        in
        let queries = W.universe_queries u ~seed:(seed + 1) ~count:total in
        let mk ?metrics store =
          W.make_flat_engine ?metrics ~cache:z.cache
            ~update_every:z.update_every ~pricing:`Gsp ~reserve:0
            ~mechanism:`Classic u ~store
        in
        let store () = W.universe_store ~churn u () in
        ( queries,
          (fun () ->
            let store = store () in
            fun () -> mk ~metrics:registry store),
          (fun () -> mk (store ())),
          function
          | None -> mk (store ())
          | Some snap ->
              let store = Essa_strategy.State_store.of_snapshot_flat snap in
              W.universe_attach_churn u store ~churn;
              mk store )
    | Section5 ->
        let wk =
          W.section5 ~k:section5_slots ~num_keywords:section5_keywords
            ~seed:universe_seed ~n:section5_n ()
        in
        let queries = W.queries wk ~seed:(seed + 1) ~count:total in
        let mk ?metrics ?states () =
          W.make_engine ?metrics ~partitioned:true ~cache:false ~update_every:1
            ~pricing:`Gsp ~reserve:0 ~mechanism:`Classic ?states wk
            ~method_:`Rhtalu
        in
        ( queries,
          (fun () ->
            let states = W.fresh_states wk in
            fun () -> mk ~metrics:registry ~states ()),
          (fun () -> mk ()),
          fun snap ->
            mk ?states:(Option.map Essa_strategy.State_store.dense_states snap) ()
        )
  in
  let t1 = now () in
  let builds = List.init (num_stacks w) (fun _ -> inputs ()) in
  let t2 = now () in
  let engines = List.map (fun build -> build ()) builds in
  let t3 = now () in
  (* Each stack's warmup is a closed loop over the stream's first
     [warmup] queries. *)
  let stamps = total + ((num_stacks w - 1) * w.warmup) in
  let commits =
    {
      next = Atomic.make 0;
      ckw = Array.make stamps 0;
      cns = Array.make stamps 0;
      sums = [||];
    }
  in
  let on_commit (s : Essa.Engine.summary) =
    let j = Atomic.fetch_and_add commits.next 1 in
    commits.ckw.(j) <- s.keyword;
    commits.cns.(j) <- now ();
    (* Only section5-dense keeps summaries, and it has a single lane, so
       this is the array's only writer. *)
    if w.restore_tail then begin
      if Array.length commits.sums = 0 then commits.sums <- Array.make stamps s;
      commits.sums.(j) <- s
    end
  in
  let serve i engine =
    let wal =
      if durable w then begin
        remove_tree (wal_dir w i);
        Some
          (Essa_serve.Wal.create_writer ~fsync:`Never ~dir:(wal_dir w i) ())
      end
      else None
    in
    let server =
      Srv.create ~metrics:registry ~on_commit ~queue_capacity:w.queue_capacity
        ~max_batch:w.max_batch ~max_restarts:2 ~commit:`Per_keyword
        ~balance:w.balance ~rebalance_every ?wal
        ~wal_snapshot_every:(if i = 0 then wal_snapshot_every else 0)
        ~workers:1 ~engine ()
    in
    ignore
      (Essa_serve.Load_gen.closed_loop server
         ~keywords:(Array.to_seq (Array.sub queries 0 w.warmup))
         ~total:w.warmup ~window:w.window ());
    (* Drop the warmup's service-time samples; the lanes are idle. *)
    Essa.Engine.sync_partition_metrics engine;
    { engine; server; wal }
  in
  let served = List.mapi serve engines in
  let t4 = now () in
  Essa_obs.Histogram.reset (histogram registry "essa.auction.total_ns");
  let s a b = float_of_int (b - a) /. 1e9 in
  {
    registry;
    closed = List.hd served;
    open_ = List.nth served (num_stacks w - 1);
    queries;
    fresh;
    engine_of;
    commits;
    parts = [| s t0 t1; s t1 t2; s t2 t3; s t3 t4 |];
  }

let discard rig =
  List.iter
    (fun st ->
      ignore (Srv.stop st.server);
      Option.iter Essa_serve.Wal.close_writer st.wal)
    (stacks rig)

(* ------------------------------------------------------------------ *)
(* The traced replay: the closed-loop stream through each layer's public
   functions, one call at a time, from this domain — the server's
   batcher and lane steps unrolled, with no cross-domain handoff. *)

let span_names =
  [|
    "batch"; "ingress.submit"; "ingress.drain"; "shard.rebalance";
    "snapshot.encode"; "wal.append_snapshot"; "shard.partition"; "group";
    "engine.batch_start"; "auction"; "engine.run_partitioned";
    "ledger.commit"; "wal.append";
  |]

let sid name =
  let rec go i = if span_names.(i) = name then i else go (i + 1) in
  go 0

let s_batch = sid "batch"
let s_submit = sid "ingress.submit"
let s_drain = sid "ingress.drain"
let s_rebalance = sid "shard.rebalance"
let s_encode = sid "snapshot.encode"
let s_append_snapshot = sid "wal.append_snapshot"
let s_partition = sid "shard.partition"
let s_group = sid "group"
let s_batch_start = sid "engine.batch_start"
let s_auction = sid "auction"
let s_run = sid "engine.run_partitioned"
let s_commit = sid "ledger.commit"
let s_append = sid "wal.append"

let replay w ~spans ~engine ~(queries : int array) ~count ~wal =
  let module I = Essa_serve.Ingress in
  let module Sh = Essa_serve.Shard in
  let nk = Essa.Engine.num_keywords engine in
  let ingress = I.create ~capacity:w.queue_capacity () in
  let ledger = Essa_serve.Commit_ledger.create ~num_keywords:nk in
  let map =
    if w.balance then Some (Sh.map_create ~shards:1 ~num_keywords:nk ())
    else None
  in
  let snapshot_bytes = ref [] in
  let pos = ref 0 and batches = ref 0 in
  while !pos < count do
    let b = min w.max_batch (count - !pos) in
    for j = !pos to !pos + b - 1 do
      Spans.span spans ~name:s_submit ~parent:(-1) ~aid:j (fun _ ->
          ignore (I.submit ingress ~keyword:queries.(j)))
    done;
    Spans.span spans ~name:s_batch ~parent:(-1) ~aid:!pos (fun root ->
        let batch =
          Spans.span spans ~name:s_drain ~parent:root ~aid:!pos (fun _ ->
              I.drain ingress ~max:w.max_batch)
        in
        (match map with
        | Some m when !batches > 0 && !batches mod rebalance_every = 0 ->
            Spans.span spans ~name:s_rebalance ~parent:root ~aid:!pos (fun _ ->
                Sh.map_rebalance m)
        | _ -> ());
        (match wal with
        | Some wr when !batches > 0 && !batches mod wal_snapshot_every = 0 ->
            let buf = Buffer.create 65536 in
            Spans.span spans ~name:s_encode ~parent:root ~aid:!pos (fun _ ->
                Essa.Engine.encode_state engine buf);
            snapshot_bytes := Buffer.length buf :: !snapshot_bytes;
            Spans.span spans ~name:s_append_snapshot ~parent:root ~aid:!pos
              (fun _ ->
                Essa_serve.Wal.append_snapshot wr ~next_seq:!pos
                  ~seqs:(Array.init !pos Fun.id) ~blob:(Buffer.contents buf))
        | _ -> ());
        let lanes =
          Spans.span spans ~name:s_partition ~parent:root ~aid:!pos (fun _ ->
              match map with
              | Some m -> Sh.partition_map m batch
              | None -> Sh.partition ~shards:1 batch)
        in
        (* The lane's stable coalescing by keyword, as the server does it. *)
        let groups = Hashtbl.create 64 and order = ref [] in
        List.iter
          (fun (q : I.query) ->
            match Hashtbl.find_opt groups q.keyword with
            | Some r -> r := q :: !r
            | None ->
                Hashtbl.add groups q.keyword (ref [ q ]);
                order := q.keyword :: !order)
          lanes.(0);
        List.iter
          (fun keyword ->
            let qs = List.rev !(Hashtbl.find groups keyword) in
            Spans.span spans ~name:s_group ~parent:root ~aid:(List.hd qs).I.seq
              (fun g ->
                let batch =
                  Spans.span spans ~name:s_batch_start ~parent:g
                    ~aid:(List.hd qs).I.seq (fun _ ->
                      Essa.Engine.batch_start engine ~keyword)
                in
                List.iter
                  (fun (q : I.query) ->
                    Spans.span spans ~name:s_auction ~parent:g ~aid:q.seq
                      (fun a ->
                        let summary =
                          Spans.span spans ~name:s_run ~parent:a ~aid:q.seq
                            (fun _ ->
                              Essa.Engine.run_partitioned ~batch engine
                                ~keyword)
                        in
                        Option.iter (fun m -> Sh.map_note m ~keyword) map;
                        (match wal with
                        | Some wr ->
                            Spans.span spans ~name:s_append ~parent:a
                              ~aid:q.seq (fun _ ->
                                Essa_serve.Wal.append wr ~seq:q.seq summary)
                        | None -> ());
                        Spans.span spans ~name:s_commit ~parent:a ~aid:q.seq
                          (fun _ ->
                            Essa_serve.Commit_ledger.commit ledger ~keyword)))
                  qs))
          (List.rev !order));
    pos := !pos + b;
    incr batches
  done;
  !snapshot_bytes

(* ------------------------------------------------------------------ *)
(* One run *)

type metric = { mname : string; value : float; unit_ : string }

let m mname value unit_ = { mname; value; unit_ }

let config_line w ~seed ~universe_seed ~seconds ~closed ~open_ =
  let shape =
    match w.shape with
    | Zipf z ->
        Printf.sprintf
          "\"universe\":\"zipf\",\"keywords\":%d,\"advertisers\":%d,\"zipf_s\":%g,\"churn\":%g,\"engine\":\"flat\",\"cache\":%b,\"update_every\":%d,\"wal\":%s,\"universe_seed\":%d,\"query_seed\":%d,\"churn_seed\":%d"
          zipf_keywords zipf_n zipf_s churn z.cache z.update_every
          (if z.wal then
             Printf.sprintf
               "{\"fsync\":\"never\",\"snapshot_every\":%d,\"open_loop_stack\":{\"fsync\":\"never\",\"snapshot_every\":0}}"
               wal_snapshot_every
           else "null")
          universe_seed (seed + 1)
          (W.churn_seed_of ~seed:universe_seed)
    | Section5 ->
        Printf.sprintf
          "\"universe\":\"section5\",\"keywords\":%d,\"advertisers\":%d,\"slots\":%d,\"method\":\"rhtalu\",\"engine\":\"dense-partitioned\",\"cache\":false,\"update_every\":1,\"wal\":null,\"crash_wal\":\"snapshot+closed-chunk\",\"universe_seed\":%d,\"query_seed\":%d"
          section5_keywords section5_n section5_slots universe_seed (seed + 1)
  in
  Printf.sprintf
    "{\"workload\":\"%s\",\"seed\":%d,\"seconds\":%d,%s,\"mechanism\":\"classic\",\"pricing\":\"gsp\",\"reserve\":0,\"deadline\":null,\"commit\":\"per-keyword\",\"workers\":1,\"balance\":%b,\"rebalance_every\":%d,\"queue_capacity\":%d,\"max_batch\":%d,\"setups\":%d,\"warmup\":%d,\"rounds\":%d,\"closed_loop\":{\"auctions\":%d,\"window\":%d},\"open_loop\":{\"queries\":%d,\"rate_per_s\":%d,\"tick_ms\":1}}"
    w.name seed seconds shape w.balance rebalance_every w.queue_capacity
    w.max_batch w.setups w.warmup rounds closed w.window open_ w.rate

let run w ~seed ~universe_seed ~seconds ~trace =
  let closed = w.closed_per_s * seconds and open_ = w.rate * seconds in
  let closed_chunk = closed / rounds and open_segment = open_ / rounds in
  let total = w.warmup + (rounds * (closed_chunk + open_segment)) in
  print_endline
    ("config " ^ config_line w ~seed ~universe_seed ~seconds ~closed ~open_);
  (* Set-up, [w.setups] times; the last rig is the one measured. *)
  let timed_setup () =
    let t0 = now () in
    let rig = setup w ~seed ~universe_seed ~total in
    (rig, seconds_since t0)
  in
  (* Earlier rigs are dropped whole, so [state_mb] sees one. *)
  let earlier =
    List.init (w.setups - 1) (fun _ ->
        let rig, dt = timed_setup () in
        discard rig;
        (rig.parts, dt))
  in
  let rig, dt = timed_setup () in
  let timings = (rig.parts, dt) :: earlier in
  let setup_s = median (Array.of_list (List.map snd timings)) in
  let part i =
    median (Array.of_list (List.map (fun (parts, _) -> parts.(i)) timings))
  in
  (* The live heap less the harness's own arrays (the query stream, the
     commit stamps and the kept summaries' slots), which grow with S. *)
  Gc.compact ();
  let harness_words =
    Array.length rig.queries + 1
    + (2 * (Array.length rig.commits.cns + 1))
    + Array.length rig.commits.sums + 1
  in
  let state_mb =
    float_of_int
      (((Gc.stat ()).Gc.live_words - harness_words) * (Sys.word_size / 8))
    /. 1e6
  in
  let reg = rig.registry and server = rig.closed.server in
  let engine = rig.closed.engine in
  let c0 name = counter reg name in
  let base =
    List.map
      (fun n -> (n, c0 n))
      [
        "essa.auctions"; "essa.revenue_cents"; "essa.slots_filled";
        "essa.ta.sorted_accesses"; "essa.ta.random_accesses";
        "essa.reduction.candidates"; "essa.engine.cache_hits";
        "essa.engine.cache_misses"; "essa.engine.cache_invalidations";
        "essa.serve.batches";
      ]
  in
  let checks = ref [] in
  let check ok what = if not ok then checks := what :: !checks in
  let nk = Essa.Engine.num_keywords engine in
  let crash_dir = Filename.concat out_dir ("crash-" ^ w.name) in
  let encode_ms = ref nan and snapshot_bytes = ref 0 in
  (* A snapshot of the live engine at a quiescent point, with the commit
     count it covers. *)
  let snapshot () =
    let buf = Buffer.create 65536 in
    let t0 = now () in
    Essa.Engine.encode_state engine buf;
    encode_ms := float_of_int (now () - t0) /. 1e6;
    snapshot_bytes := Buffer.length buf;
    (Srv.committed server, Buffer.contents buf)
  in
  (* Leave in [crash_dir] the WAL a crash at a quiescent point, with
     [committed] commits, would leave.  zipf-durable: its server's own
     segments, hard-linked, then compacted as an operator would.
     Elsewhere: a snapshot of the live engine, or the earlier snapshot
     [base] followed by the summaries of the commits after it. *)
  let crash_wal ?base ~committed () =
    remove_tree crash_dir;
    if durable w then begin
      Sys.mkdir crash_dir 0o755;
      Array.iter
        (fun f ->
          Unix.link
            (Filename.concat (wal_dir w 0) f)
            (Filename.concat crash_dir f))
        (Sys.readdir (wal_dir w 0));
      ignore (Essa_serve.Wal.compact ~dir:crash_dir)
    end
    else begin
      let wr = Essa_serve.Wal.create_writer ~fsync:`Never ~dir:crash_dir () in
      let at, blob = match base with Some b -> b | None -> snapshot () in
      Essa_serve.Wal.append_snapshot wr ~next_seq:at
        ~seqs:(Array.init at Fun.id) ~blob;
      (* One stack, so the j-th commit stamp is the server's j-th commit. *)
      for seq = at to committed - 1 do
        Essa_serve.Wal.append wr ~seq rig.commits.sums.(seq)
      done;
      Essa_serve.Wal.close_writer wr
    end
  in
  (* Restore from [crash_dir], checked: it must use a snapshot, replay its
     tail without a mismatch, persist every committed query and hold the
     revenue the live engine had at the crash point. *)
  let restore ~committed ~revenue:expected =
    Gc.full_major ();
    let t0 = now () in
    let rc =
      Essa_serve.Recovery.restore ~dir:crash_dir ~num_keywords:nk
        ~engine_of:rig.engine_of ()
    in
    let dt = seconds_since t0 in
    let revenue = Essa.Engine.total_revenue rc.engine in
    let persisted = Array.length rc.persisted in
    (* Collect the restored engine before the next round is measured. *)
    Gc.full_major ();
    check rc.snapshot_used "restore did not use a snapshot";
    check (rc.tail_mismatches = 0) "restore: WAL tail diverged on replay";
    check
      (revenue = expected)
      "restore: revenue differs from the served engine";
    check (persisted = committed)
      "restore: persisted set differs from the committed count";
    dt
  in
  (* The phases are interleaved in [rounds] rounds — a closed-loop chunk,
     an open-loop segment, then a crash restore — so each samples the
     whole run: a shared host's speed drifts over seconds, and a phase run
     in one block would see only the stretch it happened to fall in. *)
  let shed = ref 0 in
  let round k =
    let first = w.warmup + (k * (closed_chunk + open_segment)) in
    let base = if w.restore_tail then Some (snapshot ()) else None in
    let gc0 = Gc.quick_stat () in
    let first_commit = Atomic.get rig.commits.next in
    ignore
      (Essa_serve.Load_gen.closed_loop server
         ~keywords:(Array.to_seq (Array.sub rig.queries first closed_chunk))
         ~total:closed_chunk ~window:w.window ());
    (* Closed-loop time, from the chunk's first to its last commit. *)
    let closed_ns =
      rig.commits.cns.(first_commit + closed_chunk - 1)
      - rig.commits.cns.(first_commit)
    in
    (* A tail WAL ends with the chunk: the crash point is here. *)
    let at_chunk = (Srv.committed server, Essa.Engine.total_revenue engine) in
    let j0 = Atomic.get rig.commits.next in
    let ol =
      Open_loop.run rig.open_.server ~queries:rig.queries
        ~first:(first + closed_chunk) ~count:open_segment
        ~rate:(float_of_int w.rate)
    in
    Srv.flush rig.open_.server;
    (* GC work over the measured phases only, the restore excluded. *)
    let gc1 = Gc.quick_stat () in
    let committed, revenue =
      if w.restore_tail then at_chunk
      else (Srv.committed server, Essa.Engine.total_revenue engine)
    in
    crash_wal ?base ~committed ();
    let restore_dt = restore ~committed ~revenue in
    shed := !shed + ol.shed;
    (* Pair each accepted query with its commit: the m-th commit of a
       keyword is its m-th accepted query (per-keyword FIFO). *)
    let na = Array.length ol.due_ns in
    let j1 = Atomic.get rig.commits.next in
    check (j1 - j0 = na) "open loop: accepted and committed counts differ";
    let lat_ms = Array.make na nan in
    if j1 - j0 = na then begin
      let by_keyword kw =
        List.stable_sort
          (fun a b -> compare kw.(a) kw.(b))
          (List.init na Fun.id)
      in
      List.iter2
        (fun s c ->
          check
            (ol.keyword.(s) = rig.commits.ckw.(j0 + c))
            "open loop: commits are not in per-keyword FIFO order";
          lat_ms.(s) <-
            float_of_int (rig.commits.cns.(j0 + c) - ol.due_ns.(s)) /. 1e6)
        (by_keyword ol.keyword)
        (by_keyword (Array.sub rig.commits.ckw j0 na))
    end;
    ( closed_ns,
      (lat_ms, ol),
      restore_dt,
      gc1.minor_words -. gc0.minor_words,
      gc1.major_collections - gc0.major_collections )
  in
  let kept = List.init rounds round in
  let closed_ns = List.fold_left (fun a (ns, _, _, _, _) -> a + ns) 0 kept in
  let segments = List.map (fun (_, seg, _, _, _) -> seg) kept in
  let restore_times = List.map (fun (_, _, r, _, _) -> r) kept in
  let minor_words = List.fold_left (fun a (_, _, _, mw, _) -> a +. mw) 0. kept in
  let major_collections =
    List.fold_left (fun a (_, _, _, _, mc) -> a + mc) 0 kept
  in
  let all_stats =
    List.map
      (fun st ->
        let stats = Srv.stop st.server in
        Option.iter Essa_serve.Wal.close_writer st.wal;
        stats)
      (stacks rig)
  in
  let stats = List.hd all_stats in
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 all_stats in
  let delta name = c0 name - List.assoc name base in
  let auctions = delta "essa.auctions" in
  (* Everything below is checking and accounting, not timed. *)
  let late =
    Array.concat (List.map (fun (_, ol) -> ol.Open_loop.late_ns) segments)
  in
  let depth =
    Array.concat (List.map (fun (_, ol) -> ol.Open_loop.depth) segments)
  in
  (* [lat_p50_ms] is the median over the rounds of each round's open-loop
     p50, so a slow stretch of the host in a few rounds does not set it.
     [lat_p99_ms] is the p99 of every open-loop query of the run: a
     round's share has fewer than ten samples beyond its p99 on
     section5-dense. *)
  let lat_all = Array.concat (List.map fst segments) in
  let p50 =
    median
      (Array.of_list (List.map (fun (lat, _) -> percentile lat 50.) segments))
  in
  Printf.printf "open loop: %d queries in %d rounds\n" (Array.length lat_all)
    rounds;
  let aps =
    float_of_int (rounds * (closed_chunk - 1))
    /. (float_of_int closed_ns /. 1e9)
  in
  let offered = rounds * (closed_chunk + open_segment) in
  let shed_total = sum (fun s -> s.shed) in
  let failed =
    shed_total + sum (fun s -> s.degraded + s.failed + s.skipped)
  in
  let fail_share = float_of_int failed /. float_of_int offered in
  List.iter2
    (fun st (stats : Srv.stats) ->
      check (stats.errors = []) "lane errors";
      check
        (stats.committed = stats.accepted)
        "accepted queries left uncommitted";
      let report =
        Essa_serve.Replay.check_server st.server ~fresh:(rig.fresh ())
      in
      check (Essa_serve.Replay.ok report) "commit-log replay on a fresh engine")
    (stacks rig) all_stats;
  check
    (sum (fun s -> s.accepted) = (num_stacks w * w.warmup) + offered - !shed)
    "accepted count differs from the offered stream";
  (* The final crash restore, checked but not timed: zipf-durable's whole
     WAL, and elsewhere the served engine's final state. *)
  let wal_bytes = if durable w then dir_bytes (wal_dir w 0) else 0 in
  crash_wal ~committed:stats.committed ();
  ignore
    (restore ~committed:stats.committed
       ~revenue:(Essa.Engine.total_revenue engine));
  let restore_s = median (Array.of_list restore_times) in
  let slots = Essa.Engine.k engine in
  let e2e =
    [
      m "setup_s" setup_s "s";
      m "aps" aps "auctions/s";
      m "lat_p50_ms" p50 "ms";
      m "revenue_per_kauction"
        (1000. *. float_of_int (delta "essa.revenue_cents") /. float_of_int auctions)
        "cents";
      m "fill_rate"
        (float_of_int (delta "essa.slots_filled")
        /. float_of_int (auctions * slots))
        "share";
      m "state_mb" state_mb "MB";
      m "restore_s" restore_s "s";
    ]
  in
  (* Printed on every run, but bounded nowhere: CPU steal on a shared
     2-vCPU host sets this tail, so it moves between runs of the same code
     by more than any bound could allow (NOTES.md). *)
  let lat_p99 = m "lat_p99_ms" (percentile lat_all 99.) "ms" in
  let late_p99 = m "load.late_p99_ms" (percentile_int late 99. /. 1e6) "ms" in
  let per_auction name = float_of_int (delta name) /. float_of_int auctions in
  let layer =
    if not trace then []
    else begin
      let capacity n = (n * 8) + 64 in
      let stream = w.warmup + closed in
      let timed_replay on =
        let spans = Spans.create ~on ~capacity:(capacity stream) span_names in
        let engine = rig.fresh () in
        let rdir = Filename.concat out_dir ("replay-wal-" ^ w.name) in
        remove_tree rdir;
        let wal =
          if durable w then
            Some (Essa_serve.Wal.create_writer ~fsync:`Never ~dir:rdir ())
          else None
        in
        Gc.full_major ();
        let t0 = now () in
        let snaps = replay w ~spans ~engine ~queries:rig.queries ~count:stream ~wal in
        let dt = seconds_since t0 in
        Option.iter Essa_serve.Wal.close_writer wal;
        remove_tree rdir;
        (spans, dt, snaps)
      in
      (* Off and on alternate, and the faster of each pair is compared:
         the first replay also pays for cold caches and a growing heap. *)
      let _, off1, _ = timed_replay false in
      let _, on1, _ = timed_replay true in
      let _, off2, _ = timed_replay false in
      let spans, on2, snaps = timed_replay true in
      let t_off = Float.min off1 off2 and t_on = Float.min on1 on2 in
      Spans.write spans
        (Filename.concat out_dir (Printf.sprintf "spans-%s.tsv" w.name));
      let p50_ns name =
        percentile_int (Spans.durations spans name) 50.
      in
      let self_us_per_auction =
        float_of_int (Spans.total_self spans) /. 1e3 /. float_of_int stream
      in
      (* Recovery, traced, over the final crash WAL. *)
      let t0 = now () in
      let loaded = Essa_serve.Wal.load ~dir:crash_dir in
      let wal_load_s = seconds_since t0 in
      let tail =
        List.fold_left
          (fun t -> function
            | Essa_serve.Wal.Snapshot _ -> 0
            | Essa_serve.Wal.Summary _ -> t + 1)
          0 loaded.entries
      in
      let encode_ms, snapshot_bytes =
        if durable w then
          ( p50_ns "snapshot.encode" /. 1e6,
            int_of_float (percentile_int (Array.of_list snaps) 50.) )
        else (!encode_ms, !snapshot_bytes)
      in
      let phases =
        match w.shape with
        | Zipf _ -> [| 0.; 0.; 0.; 0. |]
        | Section5 ->
            (* The serial engine over the same fleet and stream: the only
               shape that stamps its phases. *)
            let wk =
              W.section5 ~k:section5_slots ~num_keywords:section5_keywords
                ~seed:universe_seed ~n:section5_n ()
            in
            let e =
              W.make_engine ~partitioned:false ~cache:false ~update_every:1
                ~pricing:`Gsp ~reserve:0 ~mechanism:`Classic wk
                ~method_:`Rhtalu
            in
            for i = 0 to stream - 1 do
              ignore (Essa.Engine.run_auction e ~keyword:rig.queries.(i))
            done;
            let pb = Essa.Engine.phase_breakdown e in
            let us ms = ms *. 1e3 /. float_of_int stream in
            Essa.Engine.
              [|
                us pb.program_eval_ms; us pb.winner_determination_ms;
                us pb.pricing_ms; us pb.user_ms;
              |]
      in
      let h = histogram reg "essa.auction.total_ns" in
      let hits = delta "essa.engine.cache_hits"
      and misses = delta "essa.engine.cache_misses" in
      let batch_sizes = histogram reg "essa.serve.batch_size" in
      [
        lat_p99;
        late_p99;
        m "load.late_max_ms" (percentile_int late 100. /. 1e6) "ms";
        m "ingress.submit_ns_p50" (p50_ns "ingress.submit") "ns";
        m "ingress.depth_p99" (percentile_int depth 99.) "count";
        m "ingress.shed" (float_of_int shed_total) "count";
        m "server.batch_size_p50" (Essa_obs.Histogram.percentile batch_sizes 50.) "count";
        m "server.batches_per_kauction"
          (1000. *. float_of_int (delta "essa.serve.batches") /. float_of_int auctions)
          "count";
        m "shard.rebalance_us"
          (if w.balance then p50_ns "shard.rebalance" /. 1e3 else 0.)
          "us";
        m "engine.auction_us_p50" (Essa_obs.Histogram.percentile h 50. /. 1e3) "us";
        m "engine.auction_us_p99" (Essa_obs.Histogram.percentile h 99. /. 1e3) "us";
        m "engine.batch_start_ns" (p50_ns "engine.batch_start") "ns";
        m "engine.cache_hit_rate"
          (if hits + misses = 0 then 0.
           else float_of_int hits /. float_of_int (hits + misses))
          "share";
        m "engine.cache_invalidations_per_kauction"
          (1000. *. per_auction "essa.engine.cache_invalidations")
          "count";
        m "ta.sorted_accesses_per_auction" (per_auction "essa.ta.sorted_accesses") "count";
        m "ta.random_accesses_per_auction" (per_auction "essa.ta.random_accesses") "count";
        m "reduction.candidates_per_auction" (per_auction "essa.reduction.candidates") "count";
        m "engine.phase.program_eval_us" phases.(0) "us";
        m "engine.phase.wd_us" phases.(1) "us";
        m "engine.phase.pricing_us" phases.(2) "us";
        m "engine.phase.user_us" phases.(3) "us";
        m "ledger.commit_ns" (p50_ns "ledger.commit") "ns";
        m "wal.append_us_p50"
          (if durable w then p50_ns "wal.append" /. 1e3 else 0.)
          "us";
        m "wal.bytes_per_auction"
          (if durable w then float_of_int wal_bytes /. float_of_int stats.committed
           else 0.)
          "B";
        m "wal.snapshots" (float_of_int (List.length snaps)) "count";
        m "snapshot.encode_ms" encode_ms "ms";
        m "snapshot.bytes" (float_of_int snapshot_bytes) "B";
        m "recovery.wal_load_s" wal_load_s "s";
        m "recovery.tail_auctions" (float_of_int tail) "count";
        m "gc.minor_words_per_auction"
          (minor_words
          /. float_of_int (rounds * (closed_chunk + open_segment)))
          "words";
        m "gc.major_collections" (float_of_int major_collections) "count";
        m "pipeline.handoff_us_per_auction" ((1e6 /. aps) -. self_us_per_auction) "us";
        m "setup.universe_s" (part 0) "s";
        m "setup.store_s" (part 1) "s";
        m "setup.engine_s" (part 2) "s";
        m "setup.warmup_s" (part 3) "s";
        m "trace.overhead_share" ((t_on -. t_off) /. t_off) "share";
      ]
    end
  in
  remove_tree crash_dir;
  List.iteri (fun i _ -> remove_tree (wal_dir w i)) (stacks rig);
  let shown = if trace then layer else [ lat_p99; late_p99 ] in
  (e2e, layer, shown, offered, failed, fail_share, List.rev !checks)

(* ------------------------------------------------------------------ *)
(* Command line and output *)

let json_number x =
  if Float.is_finite x then Printf.sprintf "%.17g" x else "null"

let () =
  let workload = ref "" and seed = ref 1 and universe_seed = ref 1 in
  let seconds = ref 8 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N query-stream seed N+1 (default 1)");
      ( "--universe-seed",
        Arg.Set_int universe_seed,
        "U universe seed: advertisers, churn and clicks (default 1)" );
      ("--seconds", Arg.Set_int seconds, "S run length (default 8)");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run (default 0)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME [--seed N] [--universe-seed U] [--seconds S] \
     [--trace 0|1]";
  List.iter
    (fun var ->
      if Sys.getenv_opt var <> None then begin
        prerr_endline
          ("perfbench: refusing to run with " ^ var
         ^ " set: it changes the engines' defaults");
        exit 2
      end)
    [ "ESSA_MECHANISM"; "ESSA_NO_CACHE" ];
  let w =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None ->
        prerr_endline
          ("perfbench: unknown workload '" ^ !workload ^ "'; one of: "
          ^ String.concat ", " (List.map (fun w -> w.name) workloads));
        exit 2
  in
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "perfbench: --seconds must be >= 1 and --trace 0 or 1";
    exit 2
  end;
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let e2e, layer, shown, attempted, failed, fail_share, problems =
    run w ~seed:!seed ~universe_seed:!universe_seed ~seconds:!seconds
      ~trace:(!trace = 1)
  in
  let show ms =
    List.iter
      (fun x -> Printf.printf "%-40s %16.4f %s\n" x.mname x.value x.unit_)
      ms
  in
  show e2e;
  Printf.printf "%-40s %16.4f %s\n" "fail_share" fail_share "share";
  show shown;
  List.iter (fun p -> Printf.printf "CHECK FAILED: %s\n" p) problems;
  let reported = if !trace = 1 then layer else e2e in
  let correct =
    problems = [] && List.for_all (fun x -> Float.is_finite x.value) reported
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun x ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" x.mname
              (json_number x.value) x.unit_)
          reported));
  exit (if correct then 0 else 1)
