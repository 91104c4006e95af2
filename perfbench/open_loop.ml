(* The sleeping open-loop generator.

   Query [i] is due at [t0 + i / rate].  The generator sleeps for about a
   millisecond, wakes, submits every query that has come due since in one
   burst, and sleeps again: it never spins, so on a two-core host it
   leaves both cores to the server's batcher and lane.  (The library's
   [Load_gen.open_loop] spins out every gap under 2 ms, which above
   ~500 queries/s keeps a third domain busy beside them.)

   Each query is timed from its due time, not from when it was sent, so a
   late generator or a stalled server shows in the latency; the lateness
   itself is reported separately. *)

type result = {
  shed : int;
  due_ns : int array;  (* accepted queries only, in acceptance order *)
  keyword : int array;  (* same indexing as [due_ns] *)
  late_ns : int array;  (* every offered query: send time - due time *)
  depth : int array;  (* ingress depth, sampled once per tick *)
}

let tick_s = 0.001

let run server ~(queries : int array) ~first ~count ~rate =
  let now () = Int64.to_int (Essa_util.Timing.now_ns ()) in
  let gap_ns = 1e9 /. rate in
  let t0 = now () in
  let due i = t0 + int_of_float (float_of_int i *. gap_ns) in
  let due_ns = Array.make count 0 and keyword = Array.make count 0 in
  let late_ns = Array.make count 0 in
  let accepted = ref 0 and shed = ref 0 in
  let depth = ref [] in
  let i = ref 0 in
  while !i < count do
    let t = now () in
    while !i < count && due !i <= t do
      let kw = queries.(first + !i) in
      let sent = now () in
      late_ns.(!i) <- sent - due !i;
      (match Essa_serve.Server.submit server ~keyword:kw with
      | Essa_serve.Ingress.Accepted _ ->
          due_ns.(!accepted) <- due !i;
          keyword.(!accepted) <- kw;
          incr accepted
      | Essa_serve.Ingress.Shed | Essa_serve.Ingress.Closed -> incr shed);
      incr i
    done;
    depth := Essa_serve.Server.depth server :: !depth;
    if !i < count then
      let wait = float_of_int (due !i - now ()) /. 1e9 in
      (* Sleep to the next due time when it is at least half a tick away,
         else a whole tick.  Rounding every wait below a tick up to one
         would make a gap a little over a tick (800/s is 1.25 ms)
         bistable: once the sleep's own overshoot passes the slack, every
         wake lands a tick late and stays there. *)
      Unix.sleepf (if wait >= tick_s /. 2. then wait else tick_s)
  done;
  {
    shed = !shed;
    due_ns = Array.sub due_ns 0 !accepted;
    keyword = Array.sub keyword 0 !accepted;
    late_ns;
    depth = Array.of_list !depth;
  }
