type error = {
  lane : int;
  seq : int;
  keyword : int;
  exn : exn;
  backtrace : string;
}

type stats = {
  accepted : int;
  shed : int;
  rejected_closed : int;
  committed : int;
  failed : int;
  skipped : int;
  degraded : int;
  lane_restarts : int;
  revenue : int;
  lane_imbalance : float;
  rebalances : int;
  killed : bool;
  errors : error list;
}

type lane_msg = Work of Ingress.query list | Stop

(* One mailbox per lane: the batcher is the only producer, the lane the
   only consumer.  Unbounded, but the batcher's in-flight window (wait
   for the previous batch before dispatching the next) keeps at most one
   Work message outstanding per lane in steady state. *)
type mailbox = {
  mb_mutex : Mutex.t;
  mb_nonempty : Condition.t;
  mb_queue : lane_msg Queue.t;
}

let mailbox_create () =
  {
    mb_mutex = Mutex.create ();
    mb_nonempty = Condition.create ();
    mb_queue = Queue.create ();
  }

let mailbox_push mb msg =
  Mutex.lock mb.mb_mutex;
  Queue.push msg mb.mb_queue;
  Condition.signal mb.mb_nonempty;
  Mutex.unlock mb.mb_mutex

let mailbox_pop mb =
  Mutex.lock mb.mb_mutex;
  while Queue.is_empty mb.mb_queue do
    Condition.wait mb.mb_nonempty mb.mb_mutex
  done;
  let msg = Queue.pop mb.mb_queue in
  Mutex.unlock mb.mb_mutex;
  msg

(* Per-lane supervisor state.  Mutated only by the owning lane; reads
   after [Domain.join] make these data-race-free without atomics. *)
type lane_state = {
  mutable restarts : int;  (* failures absorbed by Restart_lane so far *)
  mutable lane_degraded : bool;  (* true once restarts are exhausted *)
  mutable skipped : int;  (* queries blind-committed while degraded *)
}

(* The caller's WAL writer, with its observability: the writer's
   [Wal.stats] when the server was created, the [essa.wal.*] counters
   [stop] exports the difference into, and the batcher's per-snapshot
   timer. *)
type wal = {
  writer : Wal.writer;
  base : Wal.stats;
  counters : (Essa_obs.Counter.t * (Wal.stats -> int)) list;
  h_snapshot : Essa_obs.Histogram.t;
}

type t = {
  engine : Essa.Engine.t;
  ingress : Ingress.t;
  clock : unit -> int64;  (* latency stamps; same seam as Engine's ?clock *)
  (* Counts commits: each keyword commits in its own FIFO order
     (structural — one owning lane per keyword) and nobody ever waits for
     another keyword. *)
  ledger : Commit_ledger.t;
  mailboxes : mailbox array;
  registry : Essa_obs.Registry.t;
  faults : Fault.t;
  max_restarts : int;
  deadline_budget_ns : int option;
  lane_states : lane_state array;
  tracker : Shard.tracker;
  (* Load-aware keyword→lane map ([~balance:true]); [None] = the static
     modulo map.  The batcher owns assignment and rebalancing; lanes
     only bump per-keyword executed cells ([Shard.map_note], single
     writer per cell).  Rebalances run strictly between batches, after
     the previous batch has fully committed, so keyword ownership never
     changes while a keyword has queries in flight — per-keyword FIFO
     is preserved by construction. *)
  balance_map : Shard.map option;
  rebalance_every : int;
  (* Durability: the write-ahead log.  Lanes append
     a summary record at each commit point (the writer serializes); the
     batcher appends a snapshot record every [wal_snapshot_every] batches
     at the quiescent rebalance boundary, where every lane is idle and no
     auction is in flight.  The writer is owned by the caller — the
     server never closes it. *)
  wal : wal option;
  wal_snapshot_every : int;
  (* The Kill_server fault: once set, every lane blind-commits its
     remaining queries (no execution, no WAL records) and the ingress is
     closed — a cooperative stand-in for a crash whose persisted state is
     exactly the WAL at the kill point. *)
  killed : bool Atomic.t;
  (* Per-keyword commit logs: each cell has a single writer — the
     keyword's owning lane — so the refs need no lock; read them after
     the lanes have joined. *)
  commit_logs : Essa.Engine.summary list ref array;
  (* Failure/degrade aggregates.  Lanes commit concurrently, so these get
     their own mutex (cold path: failures and degrades only). *)
  fail_mutex : Mutex.t;
  mutable failed : int;
  mutable degraded_total : int;
  mutable errors_rev : error list;  (* newest first *)
  c_lane_restarts : Essa_obs.Counter.t;
  c_lane_failures : Essa_obs.Counter.t;
  c_lane_skipped : Essa_obs.Counter.t;
  c_degraded : Essa_obs.Counter.t;
  c_degraded_unfilled : Essa_obs.Counter.t;
  (* Enqueue-to-commit latency: the registered histogram plus per-lane
     private buffers.  Histograms are not thread-safe, so each lane
     records into its own buffer, merged in by [stop]. *)
  h_latency : Essa_obs.Histogram.t;
  lane_hists : Essa_obs.Histogram.t array;
  c_committed : Essa_obs.Counter.t;
  mutable batcher : unit Domain.t option;
  mutable lanes : unit Domain.t array;
  mutable final : stats option;  (* set once by the first [stop] *)
}

let record_failure t ~lane ~ls ~(q : Ingress.query) e =
  Mutex.lock t.fail_mutex;
  t.errors_rev <-
    {
      lane;
      seq = q.seq;
      keyword = q.keyword;
      exn = e;
      backtrace = Printexc.get_backtrace ();
    }
    :: t.errors_rev;
  t.failed <- t.failed + 1;
  Mutex.unlock t.fail_mutex;
  Essa_obs.Counter.incr t.c_lane_failures;
  if ls.restarts < t.max_restarts then begin
    ls.restarts <- ls.restarts + 1;
    Essa_obs.Counter.incr t.c_lane_restarts
  end
  else ls.lane_degraded <- true

let note_degraded t reason =
  Mutex.lock t.fail_mutex;
  t.degraded_total <- t.degraded_total + 1;
  Mutex.unlock t.fail_mutex;
  Essa_obs.Counter.incr t.c_degraded;
  if reason = Essa.Engine.Unfilled then
    Essa_obs.Counter.incr t.c_degraded_unfilled

let deadline_of t (q : Ingress.query) =
  match t.deadline_budget_ns with
  | None -> None
  | Some budget -> Some (Int64.add q.enqueue_ns (Int64.of_int budget))

(* The lane body, under supervision.

   A failure (engine or [on_commit] exception) while executing query [q]
   never poisons the fleet: the error report — carrying the failing
   query — is recorded, [q]'s commit still lands (the ledger count must
   not stall), and the supervisor policy decides what the lane
   does next:

   - [Restart_lane] while [restarts < max_restarts]: the lane's auction
     loop is re-entered and the next query executes normally.  The
     restart is in-domain (the lane's only state is its mailbox, which
     must survive, so tearing down the domain would buy nothing but a
     spawn); observably it is exactly a supervisor respawn.
   - [Degrade] once restarts are exhausted: the lane stops executing and
     blind-commits its remaining queries (counted as [skipped]), keeping
     the rest of the fleet live — one persistently crashing keyword shard
     no longer takes the service down. *)
let lane_loop t ~lane ~on_commit mb =
  let ls = t.lane_states.(lane) and h = t.lane_hists.(lane) in
  (* The lane owns every keyword it is handed, per-keyword FIFO is its
     queue order, and the ledger commit never waits. *)
  let process (q : Ingress.query) =
    (if ls.lane_degraded || Atomic.get t.killed then begin
       ls.skipped <- ls.skipped + 1;
       Essa_obs.Counter.incr t.c_lane_skipped
     end
     else
       match
         Fault.before_execute t.faults ~seq:q.seq;
         Shard.note_executed t.tracker ~lane;
         (match t.balance_map with
         | Some m -> Shard.map_note m ~keyword:q.keyword
         | None -> ());
         let summary =
           Essa.Engine.run_partitioned ?deadline_ns:(deadline_of t q) t.engine
             ~keyword:q.keyword
         in
         (match summary.degraded with
         | None -> ()
         | Some reason -> note_degraded t reason);
         let now = t.clock () in
         Essa_obs.Histogram.record h (Int64.to_int (Int64.sub now q.enqueue_ns));
         Essa_obs.Counter.incr t.c_committed;
         let log = t.commit_logs.(q.keyword) in
         log := summary :: !log;
         (match t.wal with
         | Some w -> Wal.append w.writer ~seq:q.seq summary
         | None -> ());
         on_commit summary
       with
       | () -> ()
       | exception Fault.Killed _ ->
           (* The crash fault fired before execution: this query and
              everything after it blind-commit (no summary, no WAL
              record — the persisted state is frozen at the previous
              commit), and the ingress closes so the run winds down.
              Not a lane failure: no restart, no error report. *)
           Atomic.set t.killed true;
           Ingress.close t.ingress;
           ls.skipped <- ls.skipped + 1;
           Essa_obs.Counter.incr t.c_lane_skipped
       | exception e -> record_failure t ~lane ~ls ~q e);
    Commit_ledger.commit t.ledger ~keyword:q.keyword;
    Shard.note_committed t.tracker ~lane
  in
  let rec loop () =
    match mailbox_pop mb with
    | Stop -> ()
    | Work qs ->
        Fault.on_lane_work t.faults ~lane;
        List.iter process qs;
        loop ()
  in
  loop ()

let wal_counters : (string * string * (Wal.stats -> int)) list =
  [
    ( "essa.wal.records",
      "WAL records appended (summaries and snapshots)",
      fun s -> s.records );
    ( "essa.wal.bytes",
      "WAL bytes appended, record headers included",
      fun s -> s.bytes );
    ("essa.wal.fsyncs", "WAL fsync barriers issued", fun s -> s.fsyncs);
    ( "essa.wal.snapshots",
      "WAL snapshot records appended",
      fun s -> s.snapshots );
    ( "essa.wal.snapshot_bytes",
      "WAL bytes appended in snapshot records",
      fun s -> s.snapshot_bytes );
  ]

let batcher_loop t ~max_batch ~c_batches ~h_batch_size =
  let shards = Array.length t.mailboxes in
  (* Each snapshot's buffer starts at the previous image's size plus
     headroom for churn growth, so encoding rarely resizes; only the
     size outlives the snapshot, never the buffer. *)
  let snapshot_size = ref 65536 in
  let rec loop last_dispatched batches_done =
    match Ingress.drain t.ingress ~max:max_batch with
    | [] ->
        (* Closed and empty: the fleet is done once in-flight work lands. *)
        Array.iter (fun mb -> mailbox_push mb Stop) t.mailboxes
    | batch ->
        (* Bound the in-flight window: the next batch is staged (the
           drain above overlapped with execution) but not dispatched
           until the previous batch has fully committed.  This keeps the
           ingress queue — not the mailboxes — as the backpressure
           surface.  Sequence numbers are contiguous from 0 and every
           dispatched query commits exactly once, so "seq+1 commits
           landed" means everything up to [seq] has committed. *)
        (match last_dispatched with
        | Some seq -> Commit_ledger.wait_until t.ledger ~count:(seq + 1)
        | None -> ());
        (* Rebalance epoch boundary: the previous batch has fully
           committed (the wait above), so every lane is idle and every
           keyword's commit-ledger entry is settled — moving a keyword
           to another lane here cannot reorder its queries.  The ledger
           wait also carries the happens-before edge that publishes the
           lanes' [map_note] counts to the batcher. *)
        (match t.balance_map with
        | Some m
          when batches_done > 0 && batches_done mod t.rebalance_every = 0 ->
            (* Close the load-accounting epoch at the same boundary the
               assignment can change: the spread of this epoch's deltas
               is attributed to the assignment that produced it, before
               any keyword migrates. *)
            Shard.fold_epoch t.tracker;
            Shard.map_rebalance m
        | _ -> ());
        (* WAL snapshot, at the same quiescent boundary: the previous
           batch has fully committed, so no lane is mid-auction and the
           engine image is consistent.  Sequence numbers are contiguous
           from 0 and everything dispatched has committed, so the
           snapshot covers (settles) exactly seqs [0..last]. *)
        (match (t.wal, last_dispatched) with
        | Some w, Some seq
          when t.wal_snapshot_every > 0
               && batches_done > 0
               && batches_done mod t.wal_snapshot_every = 0
               && not (Atomic.get t.killed) ->
            let t0 = t.clock () in
            let buf = Buffer.create (!snapshot_size + (!snapshot_size / 8)) in
            Essa.Engine.encode_state t.engine buf;
            snapshot_size := Buffer.length buf;
            Wal.append_snapshot w.writer ~next_seq:(seq + 1)
              ~seqs:(Array.init (seq + 1) Fun.id)
              ~blob:(Buffer.contents buf);
            Essa_obs.Histogram.record w.h_snapshot
              (Int64.to_int (Int64.sub (t.clock ()) t0))
        | _ -> ());
        Essa_obs.Counter.incr c_batches;
        Essa_obs.Histogram.record h_batch_size (List.length batch);
        let lanes_work =
          match t.balance_map with
          | Some m -> Shard.partition_map m batch
          | None -> Shard.partition ~shards batch
        in
        Array.iteri
          (fun s qs -> if qs <> [] then mailbox_push t.mailboxes.(s) (Work qs))
          lanes_work;
        let last = List.fold_left (fun _ (q : Ingress.query) -> q.seq) 0 batch in
        loop (Some last) (batches_done + 1)
  in
  loop None 0

let create ?metrics ?(on_commit = fun _ -> ()) ?(queue_capacity = 1024)
    ?(max_batch = 64) ?(max_restarts = 2) ?deadline_budget_ns
    ?(faults = Fault.none) ?commit:_ ?(balance = false)
    ?(rebalance_every = 4) ?wal ?(wal_snapshot_every = 8)
    ?(clock = Essa_util.Timing.now_ns) ~workers ~engine () =
  if workers < 1 then invalid_arg "Server.create: workers < 1";
  if max_batch < 1 then invalid_arg "Server.create: max_batch < 1";
  if max_restarts < 0 then invalid_arg "Server.create: max_restarts < 0";
  if rebalance_every < 1 then
    invalid_arg "Server.create: rebalance_every < 1";
  if wal_snapshot_every < 0 then
    invalid_arg "Server.create: wal_snapshot_every < 0";
  (match deadline_budget_ns with
  | Some b when b <= 0 -> invalid_arg "Server.create: deadline_budget_ns <= 0"
  | _ -> ());
  if not (Essa.Engine.partitioned engine) then
    invalid_arg
      "Server.create: serial engine (serve a partitioned one: \
       Engine.create ~partitioned:true or Engine.create_flat)";
  let registry =
    match metrics with Some r -> r | None -> Essa_obs.Registry.create ()
  in
  let ingress =
    Ingress.create ~metrics:registry ~clock ~capacity:queue_capacity ()
  in
  let nk = Essa.Engine.num_keywords engine in
  let h_latency =
    Essa_obs.Registry.histogram registry "essa.serve.commit_latency_ns"
      ~help:"Enqueue-to-commit latency per served auction (ns)"
  in
  let t =
    {
      engine;
      ingress;
      clock;
      ledger = Commit_ledger.create ~num_keywords:nk;
      mailboxes = Array.init workers (fun _ -> mailbox_create ());
      registry;
      faults;
      max_restarts;
      deadline_budget_ns;
      lane_states =
        Array.init workers (fun _ ->
            { restarts = 0; lane_degraded = false; skipped = 0 });
      tracker = Shard.tracker ~metrics:registry ~shards:workers;
      balance_map =
        (if balance then
           Some (Shard.map_create ~shards:workers ~num_keywords:nk ())
         else None);
      rebalance_every;
      wal =
        Option.map
          (fun writer ->
            {
              writer;
              base = Wal.stats writer;
              counters =
                List.map
                  (fun (name, help, field) ->
                    (Essa_obs.Registry.counter registry name ~help, field))
                  wal_counters;
              h_snapshot =
                Essa_obs.Registry.histogram registry "essa.wal.snapshot_ns"
                  ~help:
                    "Batcher time per WAL snapshot: engine encode plus \
                     append (ns)";
            })
          wal;
      wal_snapshot_every;
      killed = Atomic.make false;
      commit_logs = Array.init nk (fun _ -> ref []);
      fail_mutex = Mutex.create ();
      failed = 0;
      degraded_total = 0;
      errors_rev = [];
      c_lane_restarts =
        Essa_obs.Registry.counter registry "essa.serve.lane_restarts"
          ~help:"Lane supervisor restarts after an execution failure";
      c_lane_failures =
        Essa_obs.Registry.counter registry "essa.serve.lane_failures"
          ~help:
            "Query executions that raised (reported with the failing query, \
             committed without a summary)";
      c_lane_skipped =
        Essa_obs.Registry.counter registry "essa.serve.lane_skipped"
          ~help:
            "Queries blind-committed by a lane degraded after exhausting \
             max_restarts";
      c_degraded =
        Essa_obs.Registry.counter registry "essa.serve.degraded"
          ~help:
            "Auctions degraded by the per-auction deadline budget (cheap \
             allocation or unfilled)";
      c_degraded_unfilled =
        Essa_obs.Registry.counter registry "essa.serve.degraded_unfilled"
          ~help:
            "Deadline-degraded auctions served with every slot empty \
             (bid-program updates shed)";
      h_latency;
      lane_hists =
        Array.init workers (fun _ -> Essa_obs.Histogram.create ());
      c_committed =
        Essa_obs.Registry.counter registry "essa.serve.committed"
          ~help:"Auctions executed and committed";
      batcher = None;
      lanes = [||];
      final = None;
    }
  in
  let c_batches =
    Essa_obs.Registry.counter registry "essa.serve.batches"
      ~help:"Batches drained from the ingress queue"
  in
  let h_batch_size =
    Essa_obs.Registry.histogram registry "essa.serve.batch_size"
      ~help:"Queries per drained batch"
  in
  t.lanes <-
    Array.mapi
      (fun lane mb -> Domain.spawn (fun () -> lane_loop t ~lane ~on_commit mb))
      t.mailboxes;
  t.batcher <-
    Some
      (Domain.spawn (fun () -> batcher_loop t ~max_batch ~c_batches ~h_batch_size));
  t

let submit t ~keyword =
  if keyword < 0 || keyword >= Essa.Engine.num_keywords t.engine then
    invalid_arg (Printf.sprintf "Server.submit: keyword %d" keyword);
  Ingress.submit t.ingress ~keyword

let accepted t = Ingress.accepted t.ingress
let shed t = Ingress.shed t.ingress
let rejected_closed t = Ingress.rejected_closed t.ingress
let depth t = Ingress.depth t.ingress
let committed t = Commit_ledger.total t.ledger
let lane_restarts t = Array.map (fun ls -> ls.restarts) t.lane_states
let await_committed t ~count = Commit_ledger.wait_until t.ledger ~count

let flush t = await_committed t ~count:(Ingress.accepted t.ingress)

let collect t =
  {
    accepted = Ingress.accepted t.ingress;
    shed = Ingress.shed t.ingress;
    rejected_closed = Ingress.rejected_closed t.ingress;
    committed = committed t;
    failed = t.failed;
    skipped = Array.fold_left (fun acc ls -> acc + ls.skipped) 0 t.lane_states;
    degraded = t.degraded_total;
    lane_restarts =
      Array.fold_left (fun acc ls -> acc + ls.restarts) 0 t.lane_states;
    revenue = Essa.Engine.total_revenue t.engine;
    lane_imbalance = Shard.refresh_imbalance t.tracker;
    rebalances =
      (match t.balance_map with
      | Some m -> Shard.map_rebalances m
      | None -> 0);
    killed = Atomic.get t.killed;
    errors = List.rev t.errors_rev;
  }

let stop t =
  (match t.final with
  | Some _ -> ()
  | None ->
      Ingress.close t.ingress;
      Option.iter Domain.join t.batcher;
      Array.iter Domain.join t.lanes;
      (* The bookkeeping now has a single domain again: fold the lanes'
         private latency buffers into the registered histogram and drain
         the engine's per-keyword latency partitions. *)
      Array.iter
        (fun h ->
          Essa_obs.Histogram.merge_into ~into:t.h_latency h;
          Essa_obs.Histogram.reset h)
        t.lane_hists;
      Essa.Engine.sync_partition_metrics t.engine;
      (* The WAL's own tallies, as far as this server appended them. *)
      Option.iter
        (fun w ->
          let now = Wal.stats w.writer in
          List.iter
            (fun (c, field) -> Essa_obs.Counter.add c (field now - field w.base))
            w.counters)
        t.wal;
      (* The tallies at shutdown are part of the result even when lanes
         failed (they used to vanish behind a re-raised exception);
         [errors] carries every failure with its query.  Caching makes
         [stop] idempotent: later calls return the same snapshot. *)
      t.final <- Some (collect t));
  Option.get t.final

let errors t =
  match t.final with Some s -> s.errors | None -> List.rev t.errors_rev

let commit_log t ~keyword =
  if keyword < 0 || keyword >= Array.length t.commit_logs then
    invalid_arg (Printf.sprintf "Server.commit_log: keyword %d" keyword);
  List.rev !(t.commit_logs.(keyword))

let killed t = Atomic.get t.killed
let engine t = t.engine
let metrics t = t.registry
