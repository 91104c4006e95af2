(* Minimal binary codec for the WAL and state-store snapshots: fixed-width
   little-endian integers and length-prefixed aggregates over a
   [Buffer.t] writer and a positional string reader.  No
   backward-compatibility machinery — the WAL magic carries the format
   version and readers reject anything else. *)

exception Truncated

(* ---------------------------------------------------------------- *)
(* Writers *)

let write_i64 buf (v : int64) = Buffer.add_int64_le buf v
let write_int buf (v : int) = Buffer.add_int64_le buf (Int64.of_int v)
let write_u8 buf (v : int) = Buffer.add_uint8 buf (v land 0xFF)
let write_u32 buf (v : int) = Buffer.add_int32_le buf (Int32.of_int v)
let write_bool buf b = write_u8 buf (if b then 1 else 0)
let write_float buf f = write_i64 buf (Int64.bits_of_float f)

let write_string buf s =
  write_int buf (String.length s);
  Buffer.add_string buf s

let write_array buf write_elt a =
  write_int buf (Array.length a);
  Array.iter (fun x -> write_elt buf x) a

(* The int and bool arrays are the bulk of a store snapshot: direct
   loops, no per-element closure call.  The [_prefix] forms encode the
   first [len] elements exactly as the full form encodes [Array.sub a 0
   len], without the copy. *)
let write_int_array_prefix buf a ~len =
  if len < 0 || len > Array.length a then
    invalid_arg "Bincode.write_int_array_prefix";
  write_int buf len;
  for i = 0 to len - 1 do
    write_int buf (Array.unsafe_get a i)
  done

let write_bool_array_prefix buf a ~len =
  if len < 0 || len > Array.length a then
    invalid_arg "Bincode.write_bool_array_prefix";
  write_int buf len;
  for i = 0 to len - 1 do
    write_bool buf (Array.unsafe_get a i)
  done

let write_int_array buf a = write_int_array_prefix buf a ~len:(Array.length a)
let write_bool_array buf a = write_bool_array_prefix buf a ~len:(Array.length a)
let write_float_array buf a = write_array buf write_float a

let write_option buf write_elt = function
  | None -> write_u8 buf 0
  | Some x ->
      write_u8 buf 1;
      write_elt buf x

(* ---------------------------------------------------------------- *)
(* Reader *)

(* [limit] bounds the reader to a window of [src], so a record inside a
   larger image decodes in place. *)
type reader = { src : string; mutable pos : int; limit : int }

let reader ?(pos = 0) ?len src =
  let len = match len with Some l -> l | None -> String.length src - pos in
  if pos < 0 || len < 0 || pos > String.length src - len then
    invalid_arg "Bincode.reader";
  { src; pos; limit = pos + len }

let pos r = r.pos
let remaining r = r.limit - r.pos

let need r n = if remaining r < n then raise Truncated

let read_i64 r =
  need r 8;
  let v = String.get_int64_le r.src r.pos in
  r.pos <- r.pos + 8;
  v

let read_int r =
  let v = read_i64 r in
  let i = Int64.to_int v in
  if Int64.of_int i <> v then raise Truncated;
  i

let read_u8 r =
  need r 1;
  let v = Char.code (String.unsafe_get r.src r.pos) in
  r.pos <- r.pos + 1;
  v

let read_u32 r =
  need r 4;
  let v = String.get_int32_le r.src r.pos in
  r.pos <- r.pos + 4;
  Int32.to_int (Int32.logand v 0xFFFFFFFFl) land 0xFFFFFFFF

let read_bool r =
  match read_u8 r with
  | 0 -> false
  | 1 -> true
  | _ -> raise Truncated

let read_float r = Int64.float_of_bits (read_i64 r)

let read_string r =
  let len = read_int r in
  if len < 0 then raise Truncated;
  need r len;
  let s = String.sub r.src r.pos len in
  r.pos <- r.pos + len;
  s

let read_array r read_elt =
  let len = read_int r in
  if len < 0 then raise Truncated;
  (* Each element is at least one byte: a huge claimed length on a short
     tail is torn data, not an allocation request. *)
  if len > remaining r then raise Truncated;
  Array.init len (fun _ -> read_elt r)

let read_int_array r =
  let len = read_int r in
  if len < 0 || len > remaining r / 8 then raise Truncated;
  let a = Array.make len 0 in
  for i = 0 to len - 1 do
    Array.unsafe_set a i (read_int r)
  done;
  a

let read_bool_array r =
  let len = read_int r in
  if len < 0 || len > remaining r then raise Truncated;
  let a = Array.make len false in
  for i = 0 to len - 1 do
    Array.unsafe_set a i (read_bool r)
  done;
  a

let read_float_array r = read_array r read_float

let read_option r read_elt =
  match read_u8 r with
  | 0 -> None
  | 1 -> Some (read_elt r)
  | _ -> raise Truncated
