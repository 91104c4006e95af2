(* The whole SplitMix64 state, unboxed: 8 bytes, read and written
   native-endian.  A draw loads it, advances it and stores it back
   without boxing an int64. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let[@inline] state t = Bytes.get_int64_ne t 0

let set_state t state = Bytes.set_int64_ne t 0 state

let of_state state =
  let t = Bytes.create 8 in
  set_state t state;
  t

let create seed = of_state (mix64 (Int64.of_int seed))

let copy = Bytes.copy

(* One SplitMix64 step: every draw goes through here. *)
let[@inline] step t =
  let s = Int64.add (state t) golden_gamma in
  Bytes.set_int64_ne t 0 s;
  mix64 s

let bits64 t = step t

let split t ~key =
  (* Keyed, pure stream split: the child's seed is the mix of the parent's
     current state offset by (key+1) gammas.  mix64 is a bijection, so
     distinct keys give distinct child states, and the finalizer
     decorrelates them from multiples of the shared gamma (two SplitMix
     streams whose states differ by k·gamma would be shifted copies of
     each other).  The parent is not advanced: splitting is independent of
     call order, so any permutation of keys reproduces the same family. *)
  of_state
    (mix64 (Int64.add (state t) (Int64.mul golden_gamma (Int64.of_int (key + 1)))))

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling on the top bits to avoid modulo bias: reject the
     tail of the range where values are over-represented. *)
  let bound64 = Int64.of_int bound in
  let limit = Int64.(sub (sub max_int bound64) 1L) in
  let r = ref (Int64.shift_right_logical (step t) 1) in
  while Int64.(compare (sub !r (rem !r bound64)) limit) > 0 do
    r := Int64.shift_right_logical (step t) 1
  done;
  Int64.to_int (Int64.rem !r bound64)

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: hi < lo";
  lo + int t (hi - lo + 1)

(* 53 uniform mantissa bits, in [0, 1). *)
let[@inline] unit_float t =
  Int64.to_float (Int64.shift_right_logical (step t) 11) /. 9007199254740992.0

let[@inline] float t bound = unit_float t *. bound

let float_in t lo hi = lo +. float t (hi -. lo)

let bool t = Int64.compare (Int64.logand (step t) 1L) 0L <> 0

let[@inline] bernoulli t p =
  if p <= 0.0 then false
  else if p >= 1.0 then true
  else unit_float t < p

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let pick t a =
  if Array.length a = 0 then invalid_arg "Rng.pick: empty array";
  a.(int t (Array.length a))
