module B = Essa_util.Bincode
module Crc = Essa_util.Crc32

let magic = "ESSAWAL\x01"
let header_bytes = 8 (* u32 len + u32 crc *)

let segment_name i = Printf.sprintf "%08d.wal" i

let segment_index name =
  if
    String.length name = 12
    && Filename.check_suffix name ".wal"
    && String.for_all
         (fun c -> c >= '0' && c <= '9')
         (String.sub name 0 8)
  then int_of_string_opt (String.sub name 0 8)
  else None

let segments ~dir =
  if not (Sys.file_exists dir) then []
  else
    Sys.readdir dir |> Array.to_list
    |> List.filter_map (fun name ->
           Option.map (fun i -> (i, Filename.concat dir name)) (segment_index name))
    |> List.sort compare
    |> List.map snd

(* Summary codec.  The degrade tier and the [spend_snapshot] witness are
   both part of the replay contract, so they round-trip exactly —
   including the witness-less [None] of decimated and Unfilled
   auctions. *)

let write_summary buf (s : Essa.Engine.summary) =
  B.write_int buf s.auction_time;
  B.write_int buf s.keyword;
  B.write_array buf
    (fun buf slot -> B.write_int buf (match slot with None -> -1 | Some a -> a))
    s.assignment;
  B.write_int_array buf s.prices;
  B.write_bool_array buf s.clicks;
  B.write_int buf s.revenue;
  B.write_u8 buf
    (match s.degraded with
    | None -> 0
    | Some Essa.Engine.Cheap_allocation -> 1
    | Some Essa.Engine.Unfilled -> 2);
  B.write_option buf B.write_int_array s.spend_snapshot

let read_summary r : Essa.Engine.summary =
  let auction_time = B.read_int r in
  let keyword = B.read_int r in
  let assignment =
    B.read_array r (fun r ->
        match B.read_int r with
        | -1 -> None
        | a when a >= 0 -> Some a
        | _ -> raise B.Truncated)
  in
  let prices = B.read_int_array r in
  let clicks = B.read_bool_array r in
  let revenue = B.read_int r in
  let degraded =
    match B.read_u8 r with
    | 0 -> None
    | 1 -> Some Essa.Engine.Cheap_allocation
    | 2 -> Some Essa.Engine.Unfilled
    | _ -> raise B.Truncated
  in
  let spend_snapshot = B.read_option r B.read_int_array in
  if auction_time < 0 || keyword < 0 || revenue < 0 then raise B.Truncated;
  { auction_time; keyword; assignment; prices; clicks; revenue; degraded;
    spend_snapshot }

(* Record payloads.  A payload is a small {e prefix} — the tag and the
   fixed fields — followed, for snapshots, by the engine image.  The
   image is the last field of the snapshot payload and is [write_string]
   encoded (length, then bytes), so the prefix ends with its length and
   the image's bytes follow verbatim: the writer frames the prefix and
   streams the image straight from the caller's string. *)

let tag_summary = 1
let tag_snapshot = 2

type entry =
  | Summary of { seq : int; summary : Essa.Engine.summary }
  | Snapshot of { next_seq : int; seqs : int array; blob : string }

(* Write [entry]'s payload prefix into [buf]; return the bytes that
   complete the payload ([""] for a summary). *)
let write_prefix buf entry =
  match entry with
  | Summary { seq; summary } ->
      B.write_u8 buf tag_summary;
      B.write_int buf seq;
      write_summary buf summary;
      ""
  | Snapshot { next_seq; seqs; blob } ->
      B.write_u8 buf tag_snapshot;
      B.write_int buf next_seq;
      B.write_int_array buf seqs;
      B.write_int buf (String.length blob);
      blob

(* Decode the payload at [data.[pos .. pos + len - 1]] in place. *)
let read_payload data ~pos ~len =
  let r = B.reader ~pos ~len data in
  let entry =
    match B.read_u8 r with
    | t when t = tag_summary ->
        let seq = B.read_int r in
        if seq < 0 then raise B.Truncated;
        Summary { seq; summary = read_summary r }
    | t when t = tag_snapshot ->
        let next_seq = B.read_int r in
        if next_seq < 0 then raise B.Truncated;
        let seqs = B.read_int_array r in
        let blob = B.read_string r in
        Snapshot { next_seq; seqs; blob }
    | _ -> raise B.Truncated
  in
  (* Trailing garbage inside a CRC-valid payload would mean a codec
     mismatch — treat it like corruption rather than silently ignore. *)
  if B.remaining r <> 0 then raise B.Truncated;
  entry

(* Writer: one mutex serializes appends from all lanes.  Every record
   takes the same framing path: the payload prefix is staged in a small
   scratch buffer, the CRC runs over the prefix and then the rest of the
   payload (the snapshot image), and header, prefix and image go to the
   channel in turn — the image is never copied into the writer's
   buffers.  The record is then flushed and fsynced per the durability
   policy: [`Always] after every record, [`Every n] once per n records
   (group commit: one disk barrier amortized over the group, bounding
   loss to the last < n accepted records), [`Never] not at all.  Every
   policy except [`Never] also fsyncs on rotation and close, so a synced
   suffix never outlives an unsynced prefix (the loader stops at the
   first hole).  Rotation closes the current segment and opens the next
   numbered one. *)

type stats = {
  records : int;
  bytes : int;
  fsyncs : int;
  snapshots : int;
  snapshot_bytes : int;
}

type writer = {
  dir : string;
  segment_bytes : int;
  fsync : [ `Always | `Never | `Every of int ];
  lock : Mutex.t;
  scratch : Buffer.t;  (* a payload prefix, then its record header *)
  mutable seg_index : int;
  mutable oc : out_channel;
  mutable seg_written : int;  (* bytes in the current segment, magic included *)
  mutable unsynced : int;  (* records appended since the last fsync *)
  mutable closed : bool;
  (* [stats], counted under [lock]. *)
  mutable n_records : int;
  mutable n_bytes : int;
  mutable n_fsyncs : int;
  mutable n_snapshots : int;
  mutable n_snapshot_bytes : int;
}

let open_segment dir i =
  let path = Filename.concat dir (segment_name i) in
  let oc = open_out_gen [ Open_wronly; Open_creat; Open_trunc; Open_binary ] 0o644 path in
  output_string oc magic;
  oc

let create_writer ?(segment_bytes = 4 * 1024 * 1024) ?(fsync = `Never) ~dir () =
  if segment_bytes < 4096 then
    invalid_arg "Wal.create_writer: segment_bytes < 4096";
  (match fsync with
  | `Every n when n < 1 -> invalid_arg "Wal.create_writer: `Every n with n < 1"
  | _ -> ());
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  (* Never clobber recovered history: start after the last existing
     segment. *)
  let next =
    Sys.readdir dir |> Array.to_list
    |> List.filter_map segment_index
    |> List.fold_left (fun acc i -> max acc (i + 1)) 0
  in
  {
    dir;
    segment_bytes;
    fsync;
    lock = Mutex.create ();
    scratch = Buffer.create 512;
    seg_index = next;
    oc = open_segment dir next;
    seg_written = String.length magic;
    unsynced = 0;
    closed = false;
    n_records = 0;
    n_bytes = 0;
    n_fsyncs = 0;
    n_snapshots = 0;
    n_snapshot_bytes = 0;
  }

let do_fsync w =
  Unix.fsync (Unix.descr_of_out_channel w.oc);
  w.unsynced <- 0;
  w.n_fsyncs <- w.n_fsyncs + 1

(* Post-append durability: count the record, then barrier per policy. *)
let sync w =
  flush w.oc;
  w.unsynced <- w.unsynced + 1;
  match w.fsync with
  | `Always -> do_fsync w
  | `Every n -> if w.unsynced >= n then do_fsync w
  | `Never -> ()

(* Boundary (rotation/close) durability: drain whatever the group-commit
   window still holds, unless the policy never syncs. *)
let sync_boundary w =
  flush w.oc;
  match w.fsync with
  | `Always | `Every _ -> if w.unsynced > 0 then do_fsync w
  | `Never -> ()

let rotate_if_needed w =
  if w.seg_written >= w.segment_bytes then begin
    sync_boundary w;
    close_out w.oc;
    w.seg_index <- w.seg_index + 1;
    w.oc <- open_segment w.dir w.seg_index;
    w.seg_written <- String.length magic
  end

let with_lock w f =
  Mutex.lock w.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock w.lock) f

let append_entry w entry =
  with_lock w (fun () ->
      if w.closed then invalid_arg "Wal.append: writer closed";
      rotate_if_needed w;
      let buf = w.scratch in
      Buffer.clear buf;
      let rest = write_prefix buf entry in
      let prefix = Buffer.contents buf in
      let len = String.length prefix + String.length rest in
      let crc =
        Crc.update (Crc.string prefix) rest ~pos:0 ~len:(String.length rest)
      in
      Buffer.clear buf;
      B.write_u32 buf len;
      B.write_u32 buf (Int32.to_int crc land 0xFFFFFFFF);
      Buffer.output_buffer w.oc buf;
      output_string w.oc prefix;
      output_string w.oc rest;
      let framed = header_bytes + len in
      w.seg_written <- w.seg_written + framed;
      w.n_records <- w.n_records + 1;
      w.n_bytes <- w.n_bytes + framed;
      (match entry with
      | Snapshot _ ->
          w.n_snapshots <- w.n_snapshots + 1;
          w.n_snapshot_bytes <- w.n_snapshot_bytes + framed
      | Summary _ -> ());
      sync w)

let append w ~seq summary = append_entry w (Summary { seq; summary })

let append_snapshot w ~next_seq ~seqs ~blob =
  append_entry w (Snapshot { next_seq; seqs; blob })

let stats w =
  with_lock w (fun () ->
      {
        records = w.n_records;
        bytes = w.n_bytes;
        fsyncs = w.n_fsyncs;
        snapshots = w.n_snapshots;
        snapshot_bytes = w.n_snapshot_bytes;
      })

let close_writer w =
  with_lock w (fun () ->
      if not w.closed then begin
        sync_boundary w;
        close_out w.oc;
        w.closed <- true
      end)

(* Reading: [scan] visits every valid record in order, segment by
   segment; the first invalid byte — short header, short payload, CRC
   mismatch, undecodable payload, bad magic — ends the scan, discarding
   everything after it.  [load] and [compact] share it, so compaction
   only ever keeps a snapshot that a load would return. *)

type load = { entries : entry list; trimmed : bool }

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* [visit path entry] for each valid record; returns the trim flag. *)
let scan ~dir visit =
  let rec scan_records path data pos =
    let len_total = String.length data in
    if pos = len_total then true
    else if len_total - pos < header_bytes then false
    else begin
      let r = B.reader ~pos data in
      let len = B.read_u32 r in
      let crc = B.read_u32 r in
      let body_pos = pos + header_bytes in
      if len_total - body_pos < len then false
      else if
        Int32.to_int (Crc.update 0l data ~pos:body_pos ~len) land 0xFFFFFFFF
        <> crc
      then false
      else
        match read_payload data ~pos:body_pos ~len with
        | entry ->
            visit path entry;
            scan_records path data (body_pos + len)
        | exception B.Truncated -> false
    end
  in
  let magic_len = String.length magic in
  let rec scan_segments = function
    | [] -> false
    | path :: rest ->
        let data = read_file path in
        let ok =
          String.length data >= magic_len
          && String.sub data 0 magic_len = magic
          && scan_records path data magic_len
        in
        (* A torn record in a non-final segment invalidates everything
           after it too: WAL order is append order. *)
        if ok then scan_segments rest else true
  in
  scan_segments (segments ~dir)

let load ~dir =
  let entries = ref [] in
  let trimmed = scan ~dir (fun _ e -> entries := e :: !entries) in
  { entries = List.rev !entries; trimmed }

let compact ~dir =
  let keep = ref None in
  ignore
    (scan ~dir (fun path -> function
       | Snapshot _ -> keep := Some path
       | Summary _ -> ()));
  match !keep with
  | None -> 0
  | Some keep ->
      let deleted = ref 0 in
      List.iter
        (fun path ->
          if path < keep then begin
            Sys.remove path;
            incr deleted
          end)
        (segments ~dir);
      !deleted
