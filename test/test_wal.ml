(* Durability: bincode/CRC units, WAL round-trips, torn-tail trimming,
   format and image pins.  Snapshot continuation and the kill@SEQ
   crash-recovery sweep are rows of the scenario table
   (test_scenarios.ml). *)

module B = Essa_util.Bincode
module Crc = Essa_util.Crc32
module Sstore = Essa_strategy.State_store
module Engine = Essa.Engine
module Workload = Essa_sim.Workload
module Wal = Essa_serve.Wal

(* ---------------------------------------------------------------- *)
(* Bincode and CRC units. *)

let test_bincode_roundtrip () =
  let buf = Buffer.create 256 in
  B.write_int buf 0;
  B.write_int buf (-1);
  B.write_int buf max_int;
  B.write_int buf min_int;
  B.write_i64 buf 0x1122334455667788L;
  B.write_u8 buf 200;
  B.write_u32 buf 0xDEADBEEF;
  B.write_bool buf true;
  B.write_float buf 0.1;
  B.write_string buf "hello";
  B.write_int_array buf [| 3; -7; 42 |];
  B.write_option buf B.write_int None;
  B.write_option buf B.write_int (Some 99);
  let r = B.reader (Buffer.contents buf) in
  Alcotest.(check int) "int 0" 0 (B.read_int r);
  Alcotest.(check int) "int -1" (-1) (B.read_int r);
  Alcotest.(check int) "max_int" max_int (B.read_int r);
  Alcotest.(check int) "min_int" min_int (B.read_int r);
  Alcotest.(check int64) "i64" 0x1122334455667788L (B.read_i64 r);
  Alcotest.(check int) "u8" 200 (B.read_u8 r);
  Alcotest.(check int) "u32 unsigned" 0xDEADBEEF (B.read_u32 r);
  Alcotest.(check bool) "bool" true (B.read_bool r);
  Alcotest.(check (float 0.0)) "float exact" 0.1 (B.read_float r);
  Alcotest.(check string) "string" "hello" (B.read_string r);
  Alcotest.(check (array int)) "int array" [| 3; -7; 42 |] (B.read_int_array r);
  Alcotest.(check bool) "none" true (B.read_option r B.read_int = None);
  Alcotest.(check bool) "some" true (B.read_option r B.read_int = Some 99);
  Alcotest.(check int) "fully consumed" 0 (B.remaining r)

let test_bincode_truncation () =
  let raises_truncated f =
    match f () with exception B.Truncated -> true | _ -> false
  in
  let buf = Buffer.create 16 in
  B.write_int buf 42;
  let s = Buffer.contents buf in
  (* Every strict prefix of an i64 is truncated input. *)
  for cut = 0 to String.length s - 1 do
    let r = B.reader (String.sub s 0 cut) in
    if not (raises_truncated (fun () -> B.read_int r)) then
      Alcotest.failf "prefix of length %d decoded" cut
  done;
  (* A length prefix pointing past the end must not allocate blindly. *)
  let buf = Buffer.create 16 in
  B.write_int buf 1_000_000;
  let r = B.reader (Buffer.contents buf) in
  Alcotest.(check bool) "oversized array length" true
    (raises_truncated (fun () -> B.read_int_array r))

let test_crc_vector () =
  (* The canonical CRC-32 (IEEE 802.3) check vector. *)
  Alcotest.(check int32) "crc32 of 123456789" 0xCBF43926l
    (Crc.string "123456789")

(* The reference CRC: the plain byte-at-a-time table loop, kept here as
   the oracle for the sliced implementation. *)
let ref_table =
  Array.init 256 (fun n ->
      let c = ref (Int32.of_int n) in
      for _ = 0 to 7 do
        c :=
          if Int32.logand !c 1l <> 0l then
            Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
          else Int32.shift_right_logical !c 1
      done;
      !c)

let ref_crc ?(crc = 0l) s ~pos ~len =
  let c = ref (Int32.lognot crc) in
  for i = pos to pos + len - 1 do
    let index =
      Int32.to_int
        (Int32.logand (Int32.logxor !c (Int32.of_int (Char.code s.[i]))) 0xFFl)
    in
    c := Int32.logxor ref_table.(index) (Int32.shift_right_logical !c 8)
  done;
  Int32.lognot !c

let random_string st n = String.init n (fun _ -> Char.chr (Random.State.int st 256))

(* Every head alignment (start offsets 0-7) crossed with every length
   through eight full 8-byte steps, random bytes and a multi-megabyte
   image; the streaming split must compose. *)
let test_crc_matches_reference () =
  let st = Random.State.make [| 13 |] in
  let s = random_string st 200 in
  for pos = 0 to 7 do
    for len = 0 to 64 do
      let expect = ref_crc s ~pos ~len in
      if Crc.update 0l s ~pos ~len <> expect then
        Alcotest.failf "crc differs at pos %d len %d" pos len;
      (* A running CRC carried in from a previous chunk. *)
      if Crc.update 0xDEADBEEFl s ~pos ~len <> ref_crc ~crc:0xDEADBEEFl s ~pos ~len
      then Alcotest.failf "seeded crc differs at pos %d len %d" pos len
    done
  done;
  for _ = 1 to 200 do
    let t = random_string st (Random.State.int st 300) in
    if Crc.string t <> ref_crc t ~pos:0 ~len:(String.length t) then
      Alcotest.failf "crc differs on a random string of %d bytes"
        (String.length t)
  done;
  let big = random_string st ((3 * 1024 * 1024) + 5) in
  Alcotest.(check int32) "multi-MB string"
    (ref_crc big ~pos:0 ~len:(String.length big))
    (Crc.string big);
  Alcotest.(check int32) "multi-MB string at an odd offset"
    (ref_crc big ~pos:3 ~len:(String.length big - 4))
    (Crc.update 0l big ~pos:3 ~len:(String.length big - 4))

let crc_split =
  QCheck.Test.make ~count:300 ~name:"update (string a) b = string (a ^ b)"
    QCheck.(pair string string)
    (fun (a, b) ->
      Crc.update (Crc.string a) b ~pos:0 ~len:(String.length b)
      = Crc.string (a ^ b))

let test_int_array_prefix () =
  let st = Random.State.make [| 5 |] in
  let a = Array.init 37 (fun _ -> Random.State.bits st - (1 lsl 29)) in
  let bools = Array.init 37 (fun _ -> Random.State.bool st) in
  let enc f =
    let buf = Buffer.create 64 in
    f buf;
    Buffer.contents buf
  in
  Alcotest.(check string) "full int array = prefix over the full length"
    (enc (fun b -> B.write_int_array b a))
    (enc (fun b -> B.write_int_array_prefix b a ~len:(Array.length a)));
  Alcotest.(check string) "full bool array = prefix over the full length"
    (enc (fun b -> B.write_bool_array b bools))
    (enc (fun b -> B.write_bool_array_prefix b bools ~len:(Array.length bools)));
  for len = 0 to Array.length a do
    Alcotest.(check string) "int prefix = array of the sub"
      (enc (fun b -> B.write_int_array b (Array.sub a 0 len)))
      (enc (fun b -> B.write_int_array_prefix b a ~len));
    Alcotest.(check string) "bool prefix = array of the sub"
      (enc (fun b -> B.write_bool_array b (Array.sub bools 0 len)))
      (enc (fun b -> B.write_bool_array_prefix b bools ~len))
  done;
  match B.write_int_array_prefix (Buffer.create 8) a ~len:38 with
  | () -> Alcotest.fail "prefix longer than the array accepted"
  | exception Invalid_argument _ -> ()

(* The aggregate codecs: float, bool and nested arrays and options
   round-trip, empty ones included, and leave the reader exactly at the
   end of what was written. *)
let test_bincode_aggregates () =
  let floats = [| 0.0; -0.0; 1.5; -3.25e-7; infinity; neg_infinity; max_float |] in
  let nested = [| [| "a"; "" |]; [||]; [| "bc" |] |] in
  let buf = Buffer.create 256 in
  B.write_float_array buf floats;
  B.write_float_array buf [||];
  B.write_bool_array buf [| true; false; true |];
  B.write_array buf (fun b a -> B.write_array b B.write_string a) nested;
  B.write_option buf B.write_float (Some nan);
  B.write_string buf "";
  let s = Buffer.contents buf in
  let r = B.reader s in
  let bits a = Array.map Int64.bits_of_float a in
  Alcotest.(check (array int64)) "float array, bit-exact" (bits floats)
    (bits (B.read_float_array r));
  Alcotest.(check int) "empty float array" 0 (Array.length (B.read_float_array r));
  Alcotest.(check (array bool)) "bool array" [| true; false; true |]
    (B.read_bool_array r);
  Alcotest.(check (array (array string))) "nested arrays" nested
    (B.read_array r (fun r -> B.read_array r B.read_string));
  Alcotest.(check bool) "option of nan" true
    (match B.read_option r B.read_float with
    | Some f -> Float.is_nan f
    | None -> false);
  Alcotest.(check string) "empty string" "" (B.read_string r);
  Alcotest.(check int) "fully consumed" (String.length s) (B.pos r);
  Alcotest.(check int) "nothing left" 0 (B.remaining r)

(* A tag byte that is neither 0 nor 1 is malformed input, reported as
   [Truncated] like a short read, never a guess. *)
let test_bincode_bad_tags () =
  let raises_truncated f =
    match f () with exception B.Truncated -> true | _ -> false
  in
  let byte v =
    let buf = Buffer.create 1 in
    B.write_u8 buf v;
    B.reader (Buffer.contents buf)
  in
  Alcotest.(check bool) "bool byte 2" true
    (raises_truncated (fun () -> B.read_bool (byte 2)));
  Alcotest.(check bool) "option tag 7" true
    (raises_truncated (fun () -> B.read_option (byte 7) B.read_int));
  let buf = Buffer.create 16 in
  B.write_int buf 2;
  B.write_u8 buf 1;
  B.write_u8 buf 255;
  Alcotest.(check bool) "bad element in a bool array" true
    (raises_truncated (fun () -> B.read_bool_array (B.reader (Buffer.contents buf))));
  Alcotest.(check bool) "negative array length" true
    (raises_truncated (fun () ->
         let buf = Buffer.create 8 in
         B.write_int buf (-1);
         B.read_float_array (B.reader (Buffer.contents buf))))

let test_crc_bytes_and_bounds () =
  let st = Random.State.make [| 29 |] in
  for len = 0 to 40 do
    let s = random_string st len in
    Alcotest.(check int32) "bytes = string" (Crc.string s)
      (Crc.bytes (Bytes.of_string s))
  done;
  Alcotest.(check int32) "empty substring is the identity" 0x12345678l
    (Crc.update 0x12345678l "abc" ~pos:3 ~len:0);
  let rejected ~pos ~len =
    match Crc.update 0l "abcdef" ~pos ~len with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "negative pos" true (rejected ~pos:(-1) ~len:2);
  Alcotest.(check bool) "negative len" true (rejected ~pos:0 ~len:(-1));
  Alcotest.(check bool) "past the end" true (rejected ~pos:4 ~len:3)

(* A reader window over part of a string stops at the window's end. *)
let test_reader_window () =
  let buf = Buffer.create 32 in
  B.write_int buf 7;
  B.write_int buf 8;
  B.write_int buf 9;
  let s = Buffer.contents buf in
  let r = B.reader ~pos:8 ~len:8 s in
  Alcotest.(check int) "windowed read" 8 (B.read_int r);
  Alcotest.(check int) "window exhausted" 0 (B.remaining r);
  (match B.read_int r with
  | _ -> Alcotest.fail "read past the window"
  | exception B.Truncated -> ());
  match B.reader ~pos:16 ~len:9 s with
  | _ -> Alcotest.fail "window past the string accepted"
  | exception Invalid_argument _ -> ()

(* ---------------------------------------------------------------- *)
(* WAL writer/loader round-trip, rotation and compaction. *)

(* Real summaries to feed the WAL: run a small flat engine and keep what
   it serves (witness arrays included). *)
let sample_summaries ~count =
  let u = Workload.universe ~keywords:4 ~n:24 ~zipf_s:1.0 ~seed:31 () in
  let store = Workload.universe_store u () in
  let engine = Workload.make_flat_engine u ~store in
  let trace = Workload.universe_queries u ~seed:32 ~count in
  (engine, Array.map (fun kw -> Engine.run_partitioned engine ~keyword:kw) trace)

let test_wal_roundtrip () =
  let engine, summaries = sample_summaries ~count:40 in
  let dir = Test_harness.temp_dir () in
  Fun.protect ~finally:(fun () -> Test_harness.rm_rf dir) @@ fun () ->
  let w = Wal.create_writer ~segment_bytes:4096 ~dir () in
  Array.iteri (fun i s -> Wal.append w ~seq:i s) summaries;
  let buf = Buffer.create 4096 in
  Engine.encode_state engine buf;
  let blob = Buffer.contents buf in
  Wal.append_snapshot w ~next_seq:40 ~seqs:(Array.init 40 Fun.id) ~blob;
  Wal.close_writer w;
  Wal.close_writer w;
  (* idempotent *)
  let { Wal.entries; trimmed } = Wal.load ~dir in
  Alcotest.(check bool) "no trim" false trimmed;
  Alcotest.(check int) "record count" 41 (List.length entries);
  Alcotest.(check bool) "rotated" true (List.length (Wal.segments ~dir) > 1);
  List.iteri
    (fun i e ->
      match e with
      | Wal.Summary { seq; summary } ->
          if seq <> i then Alcotest.failf "seq %d at position %d" seq i;
          if summary <> summaries.(i) then
            Alcotest.failf "summary %d did not round-trip" i
      | Wal.Snapshot { next_seq; seqs; blob = b } ->
          Alcotest.(check int) "snapshot position" 40 i;
          Alcotest.(check int) "next_seq" 40 next_seq;
          Alcotest.(check int) "seqs" 40 (Array.length seqs);
          Alcotest.(check string) "blob" blob b)
    entries;
  (* A restarted writer appends after the recovered segments. *)
  let w2 = Wal.create_writer ~segment_bytes:4096 ~dir () in
  Wal.append w2 ~seq:40 summaries.(0);
  Wal.close_writer w2;
  let { Wal.entries = entries'; _ } = Wal.load ~dir in
  Alcotest.(check int) "append after restart" 42 (List.length entries');
  (* Compaction drops segments wholly before the snapshot-bearing one;
     the snapshot and everything after survive. *)
  let deleted = Wal.compact ~dir in
  Alcotest.(check bool) "compacted something" true (deleted > 0);
  let { Wal.entries = compacted; trimmed } = Wal.load ~dir in
  Alcotest.(check bool) "no trim after compact" false trimmed;
  let has_snapshot =
    List.exists (function Wal.Snapshot _ -> true | _ -> false) compacted
  in
  Alcotest.(check bool) "snapshot survives compaction" true has_snapshot;
  (match List.rev compacted with
  | Wal.Summary { seq; _ } :: _ ->
      Alcotest.(check int) "post-snapshot record survives" 40 seq
  | _ -> Alcotest.fail "expected trailing summary record");
  Alcotest.(check int) "second compact is a no-op" 0 (Wal.compact ~dir)

(* Group commit: an [`Every n] writer fsyncs once per [n] records, but a
   clean close drains the open group — nothing appended before close may
   be lost, even when the append count is not a multiple of [n].  A
   non-positive group size is a construction error. *)
let test_wal_group_commit () =
  let _engine, summaries = sample_summaries ~count:7 in
  let dir = Test_harness.temp_dir () in
  Fun.protect ~finally:(fun () -> Test_harness.rm_rf dir) @@ fun () ->
  let w = Wal.create_writer ~fsync:(`Every 3) ~dir () in
  Array.iteri (fun i s -> Wal.append w ~seq:i s) summaries;
  Wal.close_writer w;
  let { Wal.entries; trimmed } = Wal.load ~dir in
  Alcotest.(check bool) "no trim" false trimmed;
  Alcotest.(check int) "all records durable after close" 7
    (List.length entries);
  List.iteri
    (fun i e ->
      match e with
      | Wal.Summary { seq; summary } ->
          Alcotest.(check int) "seq" i seq;
          if summary <> summaries.(i) then
            Alcotest.failf "summary %d did not round-trip" i
      | Wal.Snapshot _ -> Alcotest.fail "unexpected snapshot record")
    entries;
  match Wal.create_writer ~fsync:(`Every 0) ~dir () with
  | (_ : Wal.writer) -> Alcotest.fail "`Every 0 accepted"
  | exception Invalid_argument _ -> ()

let read_segment path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let image engine =
  let buf = Buffer.create 4096 in
  Engine.encode_state engine buf;
  Buffer.contents buf

(* Format pin: a streamed snapshot record equals, byte for byte, the
   whole-payload framing — [len|crc|payload] with the payload written by
   the codec into one buffer and checksummed by the reference CRC. *)
let test_snapshot_format_pin () =
  let engine, summaries = sample_summaries ~count:6 in
  let dir = Test_harness.temp_dir () in
  Fun.protect ~finally:(fun () -> Test_harness.rm_rf dir) @@ fun () ->
  let snapshots =
    [
      (6, Array.init 6 Fun.id, image engine);
      (9, [| 1; 4; 8 |], String.init 4099 (fun i -> Char.chr (i * 31 land 0xFF)));
      (0, [||], "");
    ]
  in
  let w = Wal.create_writer ~dir () in
  List.iter
    (fun (next_seq, seqs, blob) -> Wal.append_snapshot w ~next_seq ~seqs ~blob)
    snapshots;
  Wal.append w ~seq:0 summaries.(0);
  Wal.close_writer w;
  let bytes = read_segment (List.hd (Wal.segments ~dir)) in
  let expected =
    let buf = Buffer.create 4096 in
    Buffer.add_string buf "ESSAWAL\x01";
    List.iter
      (fun (next_seq, seqs, blob) ->
        let payload = Buffer.create 4096 in
        B.write_u8 payload 2;
        B.write_int payload next_seq;
        B.write_int_array payload seqs;
        B.write_string payload blob;
        let payload = Buffer.contents payload in
        let len = String.length payload in
        B.write_u32 buf len;
        B.write_u32 buf
          (Int32.to_int (ref_crc payload ~pos:0 ~len) land 0xFFFFFFFF);
        Buffer.add_string buf payload)
      snapshots;
    Buffer.contents buf
  in
  let n = String.length expected in
  Alcotest.(check bool) "segment holds the summary after the snapshots" true
    (String.length bytes > n);
  Alcotest.(check string) "snapshot records byte-identical" expected
    (String.sub bytes 0 n);
  (* The summary record's header: its length, and the reference CRC of
     the payload on disk. *)
  let len = Int32.to_int (String.get_int32_le bytes n) land 0xFFFFFFFF in
  Alcotest.(check int) "summary record fills the segment"
    (String.length bytes - n - 8) len;
  Alcotest.(check int32) "summary CRC" (ref_crc bytes ~pos:(n + 8) ~len)
    (String.get_int32_le bytes (n + 4))

(* Digest pins of two engine images, computed on the byte-at-a-time
   writer: the encoder must keep producing these exact bytes. *)
let flat_churn_image () =
  let u = Workload.universe ~keywords:5 ~n:40 ~zipf_s:1.0 ~seed:11 () in
  let store = Workload.universe_store ~churn:0.2 u () in
  let engine =
    Workload.make_flat_engine ~cache:false ~mechanism:`Classic u ~store
  in
  Array.iter
    (fun kw -> ignore (Engine.run_partitioned engine ~keyword:kw))
    (Workload.universe_queries u ~seed:12 ~count:150);
  image engine

let dense_rhtalu_image () =
  let w =
    Workload.section5 ~seed:7 ~n:60 ~k:5 ~num_keywords:6
      ~budgeted_fraction:0.3 ()
  in
  let engine =
    Workload.make_engine ~partitioned:true ~cache:false ~update_every:1
      ~mechanism:`Classic w ~method_:`Rhtalu
  in
  Array.iter
    (fun kw -> ignore (Engine.run_partitioned engine ~keyword:kw))
    (Workload.queries w ~seed:8 ~count:120);
  image engine

let test_image_digests () =
  Alcotest.(check string) "flat churn image"
    "1448434b002b792c85bede743bc84129"
    (Digest.to_hex (Digest.string (flat_churn_image ())));
  Alcotest.(check string) "dense rhtalu image"
    "090895f0c79639ecc536f34457f50084"
    (Digest.to_hex (Digest.string (dense_rhtalu_image ())))

(* Regression: writing a snapshot must not move the exported counters.
   Mid-window, a dense engine's image carries the open window's frozen
   allocation, which [encode_state] recomputes by winner determination;
   that recomputation once added its threshold-algorithm accesses and
   reduction candidates to the engine's essa.* counters, so a run that
   wrote snapshots exported more work than the same run without them. *)
let test_encode_state_keeps_counters () =
  let w = Workload.section5 ~seed:1 ~n:50 ~k:5 ~num_keywords:3 () in
  let metrics = Essa_obs.Registry.create () in
  let engine =
    Workload.make_engine ~metrics ~partitioned:true ~cache:false
      ~update_every:4 ~mechanism:`Classic w ~method_:`Rhtalu
  in
  for _ = 1 to 6 do
    ignore (Engine.run_partitioned engine ~keyword:0)
  done;
  let before = Test_harness.counters metrics in
  let img = image engine in
  Alcotest.(check (list (pair string int))) "counters unchanged" before
    (Test_harness.counters metrics);
  Alcotest.(check string) "image digest" "881da06c66db4faae352485919db0ec8"
    (Digest.to_hex (Digest.string img))

(* Regression: compaction once anchored on any full-length record whose
   first payload byte was the snapshot tag, CRC unchecked.  With the
   newer of two snapshots corrupt, it deleted the segment holding the
   older — the only one the loader can return. *)
let test_compact_keeps_loadable_snapshot () =
  let u = Workload.universe ~keywords:4 ~n:24 ~zipf_s:1.0 ~seed:31 () in
  let engine_of snap =
    let store =
      match snap with
      | None -> Workload.universe_store u ()
      | Some s -> Sstore.of_snapshot_flat s
    in
    Workload.make_flat_engine u ~store
  in
  let engine = engine_of None in
  let trace = Workload.universe_queries u ~seed:32 ~count:12 in
  let dir = Test_harness.temp_dir () in
  Fun.protect ~finally:(fun () -> Test_harness.rm_rf dir) @@ fun () ->
  (* Two writers, so two segments, each ending in a snapshot. *)
  List.iter
    (fun (first, last) ->
      let w = Wal.create_writer ~dir () in
      for seq = first to last do
        Wal.append w ~seq (Engine.run_partitioned engine ~keyword:trace.(seq))
      done;
      Wal.append_snapshot w ~next_seq:(last + 1)
        ~seqs:(Array.init (last + 1) Fun.id)
        ~blob:(image engine);
      Wal.close_writer w)
    [ (0, 5); (6, 11) ];
  let newer = List.nth (Wal.segments ~dir) 1 in
  let bytes = Bytes.of_string (read_segment newer) in
  let last = Bytes.length bytes - 1 in
  Bytes.set bytes last (Char.chr (Char.code (Bytes.get bytes last) lxor 0x40));
  let oc = open_out_bin newer in
  output_bytes oc bytes;
  close_out oc;
  let snapshots () =
    List.length
      (List.filter
         (function Wal.Snapshot _ -> true | Wal.Summary _ -> false)
         (Wal.load ~dir).entries)
  in
  Alcotest.(check int) "one loadable snapshot before compact" 1 (snapshots ());
  Alcotest.(check int) "nothing before the loadable snapshot to delete" 0
    (Wal.compact ~dir);
  Alcotest.(check int) "the loadable snapshot survives compact" 1
    (snapshots ());
  let rc = Essa_serve.Recovery.restore ~dir ~num_keywords:4 ~engine_of () in
  Alcotest.(check bool) "restore uses the snapshot" true rc.snapshot_used;
  Alcotest.(check int) "tail replays clean" 0 rc.tail_mismatches;
  Alcotest.(check int) "every logged query persisted" 12
    (Array.length rc.persisted)

(* [Wal.stats] counts what was appended: records, framed bytes (equal
   to the segment bytes past the magic), fsync barriers and snapshots. *)
let test_wal_stats () =
  let engine, summaries = sample_summaries ~count:5 in
  let dir = Test_harness.temp_dir () in
  Fun.protect ~finally:(fun () -> Test_harness.rm_rf dir) @@ fun () ->
  let w = Wal.create_writer ~fsync:(`Every 2) ~dir () in
  Array.iteri (fun i s -> Wal.append w ~seq:i s) summaries;
  let blob = image engine in
  Wal.append_snapshot w ~next_seq:5 ~seqs:(Array.init 5 Fun.id) ~blob;
  let st = Wal.stats w in
  Wal.close_writer w;
  let on_disk =
    List.fold_left
      (fun acc path -> acc + String.length (read_segment path) - 8)
      0 (Wal.segments ~dir)
  in
  Alcotest.(check int) "records" 6 st.records;
  Alcotest.(check int) "bytes" on_disk st.bytes;
  Alcotest.(check int) "fsyncs (group of 2)" 3 st.fsyncs;
  Alcotest.(check int) "snapshots" 1 st.snapshots;
  (* tag + next_seq + seqs (length + 5) + blob length, framed. *)
  Alcotest.(check int) "snapshot bytes"
    (8 + 1 + 8 + (8 * 6) + 8 + String.length blob)
    st.snapshot_bytes

(* The server exports the writer's tallies as [essa.wal.*] and times
   each snapshot into [essa.wal.snapshot_ns]. *)
let test_server_wal_metrics () =
  let u = Workload.universe ~keywords:5 ~n:40 ~zipf_s:1.0 ~seed:1 () in
  let store = Workload.universe_store u () in
  let engine = Workload.make_flat_engine u ~store in
  let trace = Workload.universe_queries u ~seed:2 ~count:200 in
  let dir = Test_harness.temp_dir () in
  Fun.protect ~finally:(fun () -> Test_harness.rm_rf dir) @@ fun () ->
  let w = Wal.create_writer ~dir () in
  let registry = Essa_obs.Registry.create () in
  let server =
    Essa_serve.Server.create ~metrics:registry ~workers:2
      ~wal:w ~wal_snapshot_every:2 ~max_batch:16
      ~queue_capacity:(Array.length trace) ~engine ()
  in
  Array.iter
    (fun kw -> ignore (Essa_serve.Server.submit server ~keyword:kw))
    trace;
  let stats = Essa_serve.Server.stop server in
  let st = Wal.stats w in
  Wal.close_writer w;
  let counter = Test_harness.counter registry in
  let snapshots = counter "essa.wal.snapshots" in
  Alcotest.(check bool) "snapshots taken" true (snapshots > 0);
  Alcotest.(check int) "records = commits + snapshots"
    (stats.committed + snapshots)
    (counter "essa.wal.records");
  Alcotest.(check int) "bytes" st.bytes (counter "essa.wal.bytes");
  Alcotest.(check int) "snapshot bytes" st.snapshot_bytes
    (counter "essa.wal.snapshot_bytes");
  Alcotest.(check int) "fsyncs (never)" 0 (counter "essa.wal.fsyncs");
  match Essa_obs.Registry.find registry "essa.wal.snapshot_ns" with
  | Some (Essa_obs.Registry.Histogram h) ->
      Alcotest.(check int) "one timing per snapshot" snapshots
        (Essa_obs.Histogram.count h)
  | _ -> Alcotest.fail "no essa.wal.snapshot_ns histogram"

(* ---------------------------------------------------------------- *)
(* Torn tails: truncate the final segment at every byte offset of its
   last record; the loader must trim to the last valid record, and
   recovery must still restore a consistent engine. *)

let frame_offsets bytes =
  (* Start offsets of each record frame in a segment image. *)
  let len = String.length bytes in
  let rec go off acc =
    if off >= len then List.rev acc
    else
      let rlen = Int32.to_int (String.get_int32_le bytes off) land 0xFFFFFFFF in
      go (off + 8 + rlen) (off :: acc)
  in
  go 8 []

let test_wal_torn_tail () =
  let u = Workload.universe ~keywords:4 ~n:24 ~zipf_s:1.0 ~seed:31 () in
  let store = Workload.universe_store u () in
  let engine = Workload.make_flat_engine u ~store in
  let trace = Workload.universe_queries u ~seed:32 ~count:30 in
  let dir = Test_harness.temp_dir () in
  let dir2 = Test_harness.temp_dir () in
  Fun.protect ~finally:(fun () ->
      Test_harness.rm_rf dir;
      Test_harness.rm_rf dir2)
  @@ fun () ->
  let w = Wal.create_writer ~dir () in
  (* Serve and append in lockstep, snapshotting after auction 20 — the
     snapshot must capture the engine *at that point*, as the server's
     batcher does at its quiescent boundary. *)
  Array.iteri
    (fun i kw ->
      Wal.append w ~seq:i (Engine.run_partitioned engine ~keyword:kw);
      if i = 19 then begin
        let buf = Buffer.create 4096 in
        Engine.encode_state engine buf;
        Wal.append_snapshot w ~next_seq:20 ~seqs:(Array.init 20 Fun.id)
          ~blob:(Buffer.contents buf)
      end)
    trace;
  Wal.close_writer w;
  let seg =
    match Wal.segments ~dir with
    | [ s ] -> s
    | l -> Alcotest.failf "expected one segment, got %d" (List.length l)
  in
  let bytes =
    let ic = open_in_bin seg in
    let n = in_channel_length ic in
    let b = really_input_string ic n in
    close_in ic;
    b
  in
  let full = Wal.load ~dir in
  Alcotest.(check int) "full record count" 31 (List.length full.entries);
  let offsets = frame_offsets bytes in
  let last_start = List.nth offsets (List.length offsets - 1) in
  let file_len = String.length bytes in
  let write_truncated cut =
    Test_harness.rm_rf dir2;
    Unix.mkdir dir2 0o755;
    let oc = open_out_bin (Filename.concat dir2 "00000000.wal") in
    output_string oc (String.sub bytes 0 cut);
    close_out oc
  in
  for cut = last_start to file_len - 1 do
    write_truncated cut;
    let { Wal.entries; trimmed } = Wal.load ~dir:dir2 in
    Alcotest.(check int)
      (Printf.sprintf "cut at %d keeps the valid prefix" cut)
      30
      (List.length entries);
    Alcotest.(check bool)
      (Printf.sprintf "cut at %d trim flag" cut)
      (cut > last_start) trimmed
  done;
  (* A corrupt CRC mid-file discards that record and the rest. *)
  let mid = List.nth offsets 10 in
  write_truncated file_len;
  let path = Filename.concat dir2 "00000000.wal" in
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
  ignore (Unix.lseek fd (mid + 9) Unix.SEEK_SET);
  let byte = Bytes.make 1 (Char.chr (Char.code bytes.[mid + 9] lxor 0xFF)) in
  ignore (Unix.write fd byte 0 1);
  Unix.close fd;
  let { Wal.entries; trimmed } = Wal.load ~dir:dir2 in
  Alcotest.(check int) "corrupt CRC stops the load" 10 (List.length entries);
  Alcotest.(check bool) "corrupt CRC sets trimmed" true trimmed;
  (* Recovery over torn tails: restore from a sample of truncation
     points (snapshot at record 20 — cuts land in the replay tail) and
     require a clean replay report each time. *)
  let engine_of snap =
    let store =
      match snap with
      | None -> Workload.universe_store u ()
      | Some s -> Sstore.of_snapshot_flat s
    in
    Workload.make_flat_engine u ~store
  in
  let cut = ref last_start in
  while !cut < file_len do
    write_truncated !cut;
    let rc = Essa_serve.Recovery.restore ~dir:dir2 ~num_keywords:4 ~engine_of () in
    Alcotest.(check int)
      (Printf.sprintf "cut at %d replays clean" !cut)
      0 rc.tail_mismatches;
    let report =
      Essa_serve.Replay.check ~served:rc.engine ~fresh:(engine_of None)
        ~log:rc.logs
    in
    if not (Essa_serve.Replay.ok report) then
      Alcotest.failf "cut at %d fails the replay contract" !cut;
    cut := !cut + 13
  done

let () =
  Alcotest.run "wal"
    [
      ( "bincode",
        [
          Alcotest.test_case "round-trip" `Quick test_bincode_roundtrip;
          Alcotest.test_case "truncation" `Quick test_bincode_truncation;
          Alcotest.test_case "crc32 vector" `Quick test_crc_vector;
          Alcotest.test_case "crc32 = bytewise reference" `Quick
            test_crc_matches_reference;
          QCheck_alcotest.to_alcotest crc_split;
          Alcotest.test_case "array prefix form" `Quick test_int_array_prefix;
          Alcotest.test_case "reader window" `Quick test_reader_window;
          Alcotest.test_case "aggregates round-trip" `Quick
            test_bincode_aggregates;
          Alcotest.test_case "bad tags" `Quick test_bincode_bad_tags;
          Alcotest.test_case "crc32 bytes and bounds" `Quick
            test_crc_bytes_and_bounds;
        ] );
      ( "wal",
        [
          Alcotest.test_case "round-trip, rotation, compaction" `Quick
            test_wal_roundtrip;
          Alcotest.test_case "torn tail at every offset" `Quick
            test_wal_torn_tail;
          Alcotest.test_case "group commit drains at close" `Quick
            test_wal_group_commit;
          Alcotest.test_case "snapshot format pin" `Quick
            test_snapshot_format_pin;
          Alcotest.test_case "engine image digests" `Quick test_image_digests;
          Alcotest.test_case "snapshot leaves the counters alone" `Quick
            test_encode_state_keeps_counters;
          Alcotest.test_case "compact keeps the loadable snapshot" `Quick
            test_compact_keeps_loadable_snapshot;
          Alcotest.test_case "stats" `Quick test_wal_stats;
          Alcotest.test_case "server exports essa.wal.*" `Quick
            test_server_wal_metrics;
        ] );
    ]
