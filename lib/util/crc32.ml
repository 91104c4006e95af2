(* CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) — the checksum
   guarding every WAL record.  Slicing-by-8 (Kounavis & Berry): eight
   256-entry tables let the inner loop fold eight input bytes per step
   with eight independent lookups, instead of one dependent lookup per
   byte.  The tables hold immediate [int]s (the CRC lives in the low 32
   bits), so the loop neither boxes nor allocates; the bytewise loop
   finishes the unaligned head and tail.  Dependency-free. *)

(* [table.(k * 256 + n)] is the CRC of byte [n] followed by [k] zero
   bytes; slice 0 is the classic byte-at-a-time table. *)
let table =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xFF)
    done
  done;
  t

let[@inline] slice k n = Array.unsafe_get table ((k lsl 8) lor n)
let[@inline] byte s i = Char.code (String.unsafe_get s i)

let update crc s ~pos ~len =
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Crc32.update";
  let c = ref (lnot (Int32.to_int crc) land 0xFFFFFFFF) in
  let i = ref pos in
  let stop = pos + len in
  let stop8 = stop - 7 in
  while !i < stop8 do
    let j = !i in
    let lo =
      !c
      lxor (byte s j
           lor (byte s (j + 1) lsl 8)
           lor (byte s (j + 2) lsl 16)
           lor (byte s (j + 3) lsl 24))
    in
    c :=
      slice 7 (lo land 0xFF)
      lxor slice 6 ((lo lsr 8) land 0xFF)
      lxor slice 5 ((lo lsr 16) land 0xFF)
      lxor slice 4 (lo lsr 24)
      lxor slice 3 (byte s (j + 4))
      lxor slice 2 (byte s (j + 5))
      lxor slice 1 (byte s (j + 6))
      lxor slice 0 (byte s (j + 7));
    i := j + 8
  done;
  for j = !i to stop - 1 do
    c := slice 0 ((!c lxor byte s j) land 0xFF) lxor (!c lsr 8)
  done;
  Int32.of_int (lnot !c land 0xFFFFFFFF)

let string s = update 0l s ~pos:0 ~len:(String.length s)
let bytes b = string (Bytes.unsafe_to_string b)
