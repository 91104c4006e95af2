(** Minimal binary codec: fixed-width little-endian integers and
    length-prefixed aggregates, written into a [Buffer.t] and read back
    through a positional string reader.  Shared by the serving WAL and
    the state-store snapshot encoder.

    Every decoder raises {!Truncated} on malformed or short input — the
    WAL loader turns that into a trimmed tail, never a crash. *)

exception Truncated

(** {2 Writers} *)

val write_i64 : Buffer.t -> int64 -> unit
val write_int : Buffer.t -> int -> unit
(** OCaml [int], stored as 8-byte LE (exact round-trip on 64-bit). *)

val write_u8 : Buffer.t -> int -> unit
val write_u32 : Buffer.t -> int -> unit
(** Low 32 bits, LE — the WAL framing fields (length, CRC). *)

val write_bool : Buffer.t -> bool -> unit
val write_float : Buffer.t -> float -> unit
(** IEEE bit pattern via [Int64.bits_of_float]: exact round-trip. *)

val write_string : Buffer.t -> string -> unit
val write_array : Buffer.t -> (Buffer.t -> 'a -> unit) -> 'a array -> unit
val write_int_array : Buffer.t -> int array -> unit
val write_bool_array : Buffer.t -> bool array -> unit

val write_int_array_prefix : Buffer.t -> int array -> len:int -> unit
(** The first [len] elements, encoded exactly as
    [write_int_array buf (Array.sub a 0 len)] but without the copy.
    @raise Invalid_argument unless [0 <= len <= Array.length a]. *)

val write_bool_array_prefix : Buffer.t -> bool array -> len:int -> unit
(** The [bool] counterpart of {!write_int_array_prefix}. *)

val write_float_array : Buffer.t -> float array -> unit
val write_option : Buffer.t -> (Buffer.t -> 'a -> unit) -> 'a option -> unit

(** {2 Reader} *)

type reader

val reader : ?pos:int -> ?len:int -> string -> reader
(** A positional reader over the [len] bytes of [src] starting at [pos]
    (defaults: 0 and the rest of the string).  Reads past the window
    raise {!Truncated}, so a record embedded in a larger image decodes
    in place, without a [String.sub].
    @raise Invalid_argument when the window is outside the string. *)

val pos : reader -> int
val remaining : reader -> int

val read_i64 : reader -> int64
val read_int : reader -> int
val read_u8 : reader -> int
val read_u32 : reader -> int
val read_bool : reader -> bool
val read_float : reader -> float
val read_string : reader -> string
val read_array : reader -> (reader -> 'a) -> 'a array
val read_int_array : reader -> int array
val read_bool_array : reader -> bool array
val read_float_array : reader -> float array
val read_option : reader -> (reader -> 'a) -> 'a option
