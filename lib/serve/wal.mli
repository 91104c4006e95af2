(** The serving write-ahead log: crash durability for the per-keyword
    commit streams.

    A WAL directory holds numbered segment files ([00000000.wal],
    [00000001.wal], ...).  Each segment starts with an 8-byte magic and
    then carries length-prefixed, CRC-checked records:

    {v
      segment  := magic  record*
      magic    := "ESSAWAL\x01"                   (8 bytes)
      record   := len:u32le  crc:u32le  payload   (len = |payload|,
                                                   crc = CRC-32(payload))
      payload  := 0x01 seq:i64le summary          (a committed auction)
                | 0x02 next_seq:i64le seqs:int[]  (a snapshot:
                       blob:string                 engine image + the
                                                   seq set it covers)
    v}

    Two record kinds:

    - a {e summary} record is appended at a lane's commit point, one per
      accepted query, carrying the query's global sequence number and the
      full {!Essa.Engine.summary} — including the [spend_snapshot] replay
      witness, the degraded tier, and the witness-less decimated /
      [Unfilled] cases (recorded as [None], exactly as replay expects);
    - a {e snapshot} record serializes the engine (the partitioned state
      store — dense or flat — plus the atomic cross-keyword scalars, via
      {!Essa.Engine.encode_state}), the batcher's dispatch cursor
      [next_seq], and the sorted set of sequence numbers whose summaries
      the snapshot subsumes — so recovery after {!compact} still knows
      exactly which queries are persisted.

    A record is written in one pass: the header, then the payload's
    fixed fields, then — for a snapshot — the engine image straight
    from the caller's string.  The CRC is computed incrementally over
    the same two pieces, so a snapshot is never copied inside the
    writer; the bytes on disk are exactly the framing above.

    Torn tails — a crash mid-append leaves a short or CRC-corrupt final
    record — are {e trimmed}, never crashed on: {!load} stops at the last
    valid record and reports the trim.  Appends are mutex-serialized
    (lanes share one writer); reads happen only at recovery, never
    concurrently with writes. *)

type writer

val create_writer :
  ?segment_bytes:int ->
  ?fsync:[ `Always | `Never | `Every of int ] ->
  dir:string ->
  unit ->
  writer
(** Open a writer on [dir] (created if missing), starting a {e new}
    segment after any existing ones — a restarted server appends after
    the segments it recovered from.  [segment_bytes] (default 4 MiB)
    rotates to a fresh segment once the current one exceeds it (records
    never split across segments).  [fsync] is the durability policy:
    [`Always] fsyncs after every record (crash loses nothing accepted);
    [`Every n] group-commits — one fsync per [n] appended records, plus
    one draining the open group at rotation and close, so a crash loses
    at most the last [n - 1] accepted records and a synced suffix never
    outlives an unsynced prefix ([`Every 1] ≡ [`Always]); [`Never] only
    flushes the userspace buffer (crash may lose the OS cache; torn
    tails are still trimmed).  Default [`Never].
    @raise Invalid_argument on [segment_bytes < 4096] or
    [`Every n] with [n < 1]. *)

val append : writer -> seq:int -> Essa.Engine.summary -> unit
(** Append one committed auction.  Thread-safe. *)

val append_snapshot :
  writer -> next_seq:int -> seqs:int array -> blob:string -> unit
(** Append a snapshot record: [blob] is the {!Essa.Engine.encode_state}
    image, [next_seq] the batcher's dispatch cursor, [seqs] the sorted
    sequence numbers covered by the snapshot.  Thread-safe. *)

type stats = {
  records : int;  (** records appended, summaries and snapshots *)
  bytes : int;  (** framed bytes appended (headers included) *)
  fsyncs : int;  (** fsync barriers issued *)
  snapshots : int;  (** snapshot records appended *)
  snapshot_bytes : int;  (** framed bytes of those snapshot records *)
}

val stats : writer -> stats
(** The writer's running totals since {!create_writer}, counted under
    the append lock (the append path does not allocate for them).
    Thread-safe. *)

val close_writer : writer -> unit
(** Flush (and fsync unless [`Never]) and close.  Idempotent. *)

(** {2 Reading} *)

type entry =
  | Summary of { seq : int; summary : Essa.Engine.summary }
  | Snapshot of { next_seq : int; seqs : int array; blob : string }

type load = {
  entries : entry list;  (** every valid record, in append order *)
  trimmed : bool;
      (** true when a torn tail (short or CRC-corrupt record, or any
          bytes after it) was discarded *)
}

val load : dir:string -> load
(** Read every segment in order, stopping at the first invalid record
    (everything after it is discarded and [trimmed] is set).  A missing
    or empty directory loads as no entries.  Never raises on corrupt
    input; raises [Sys_error] only on filesystem errors. *)

val segments : dir:string -> string list
(** The segment files of [dir], sorted, as full paths. *)

val compact : dir:string -> int
(** Delete every segment before the one holding the last snapshot that
    {!load} returns (their summaries are subsumed by it; the snapshot's
    [seqs] field keeps the persisted set recoverable).  A snapshot the
    loader would not reach — CRC-corrupt, undecodable, or after a torn
    record — never anchors compaction.  Returns the number of segments
    deleted.  Call only while no writer is open. *)
