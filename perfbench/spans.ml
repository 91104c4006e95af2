(* An in-memory span buffer for the traced replay.

   Every span is one call into a layer's public function: a name, start
   and end stamps, the enclosing span and the auction (query sequence
   number) it served.  The columns are preallocated, so recording is a
   clock read and a few array stores; nothing is written out until the
   run ends.  A disabled buffer records nothing, which is how the replay
   measures its own cost without tracing. *)

type t = {
  on : bool;
  names : string array;
  mutable n : int;
  name : int array;
  start : int array;
  stop : int array;
  parent : int array;
  aid : int array;
}

let create ~on ~capacity names =
  let cap = if on then capacity else 0 in
  {
    on;
    names;
    n = 0;
    name = Array.make cap 0;
    start = Array.make cap 0;
    stop = Array.make cap 0;
    parent = Array.make cap 0;
    aid = Array.make cap 0;
  }

let now () = Int64.to_int (Essa_util.Timing.now_ns ())

(* Open a span; returns its index, or -1 when tracing is off. *)
let enter t ~name ~parent ~aid =
  if not t.on then -1
  else begin
    let i = t.n in
    if i >= Array.length t.name then failwith "Spans: buffer full";
    t.n <- i + 1;
    t.name.(i) <- name;
    t.parent.(i) <- parent;
    t.aid.(i) <- aid;
    t.start.(i) <- now ();
    i
  end

let leave t i = if i >= 0 then t.stop.(i) <- now ()

let span t ~name ~parent ~aid f =
  let i = enter t ~name ~parent ~aid in
  let r = f i in
  leave t i;
  r

(* Self time of every span: its duration minus the durations of its
   direct children (children never overlap their parent's siblings: the
   replay is single-domain and strictly nested). *)
let self_times t =
  let self = Array.init t.n (fun i -> t.stop.(i) - t.start.(i)) in
  for i = 0 to t.n - 1 do
    let p = t.parent.(i) in
    if p >= 0 then self.(p) <- self.(p) - (t.stop.(i) - t.start.(i))
  done;
  self

let total_self t = Array.fold_left ( + ) 0 (self_times t)

(* Inclusive durations of every span named [name], in ns. *)
let durations t name =
  let id =
    let rec find i =
      if i >= Array.length t.names then invalid_arg ("Spans: " ^ name)
      else if t.names.(i) = name then i
      else find (i + 1)
    in
    find 0
  in
  let acc = ref [] in
  for i = t.n - 1 downto 0 do
    if t.name.(i) = id then acc := (t.stop.(i) - t.start.(i)) :: !acc
  done;
  Array.of_list !acc

let write t path =
  let oc = open_out path in
  output_string oc "id\tname\tstart_ns\tend_ns\tparent\tauction\n";
  for i = 0 to t.n - 1 do
    Printf.fprintf oc "%d\t%s\t%d\t%d\t%d\t%d\n" i t.names.(t.name.(i))
      t.start.(i) t.stop.(i) t.parent.(i) t.aid.(i)
  done;
  close_out oc
