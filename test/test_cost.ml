(* Cost pins for the auction driver: words allocated per auction on
   fixed engine-only streams, run on one domain with the evaluation cache
   off.  Allocation counts repeat exactly from run to run where timings
   on a shared host do not, so a ceiling catches a regression no timing
   gate can see.

   The ceilings are the dev-profile values ([dune runtest]); the perf
   profile must come in at or below them.  A change that raises a ceiling
   says why in CHANGES.md. *)

module Engine = Essa.Engine
module Workload = Essa_sim.Workload

(* Words per auction, one row per stream, rounded up at the third
   decimal: minor-heap words, and direct major words — blocks over
   [Max_young_wosize] (256 words), which OCaml allocates straight in the
   major heap where [Gc.minor_words] does not see them. *)
let ceilings =
  [
    ("flat zipf, partitioned", (397.715, 49.364));
    ("section5 rhtalu, partitioned", (3736.362, 1013.710));
    ("section5 rhtalu, serial", (3089.655, 0.0));
    ("section5 rh, serial", (123098.810, 0.0));
    ("section5 rh, partitioned", (1057.315, 1013.710));
  ]

type stream = {
  name : string;
  engine : unit -> Engine.t;
  run : Engine.t -> keyword:int -> Engine.summary;
  queries : int array;
  warm : int;  (* auctions run before the count starts *)
}

let partitioned e ~keyword = Engine.run_partitioned e ~keyword
let serial e ~keyword = Engine.run_auction e ~keyword

let streams () =
  let u = Workload.universe ~keywords:2000 ~n:20000 ~zipf_s:1.1 ~seed:1 () in
  let w = Workload.section5 ~k:15 ~num_keywords:10 ~seed:1 ~n:1000 () in
  let q = Workload.queries w ~seed:2 ~count:900 in
  let dense ?partitioned method_ () =
    Workload.make_engine ?partitioned ~cache:false ~mechanism:`Classic w
      ~method_
  in
  [
    {
      name = "flat zipf, partitioned";
      engine =
        (fun () ->
          Workload.make_flat_engine ~cache:false ~mechanism:`Classic u
            ~store:(Workload.universe_store ~churn:0.02 u ()));
      run = partitioned;
      queries = Workload.universe_queries u ~seed:2 ~count:3000;
      warm = 1000;
    };
    {
      name = "section5 rhtalu, partitioned";
      engine = dense ~partitioned:true `Rhtalu;
      run = partitioned;
      queries = q;
      warm = 300;
    };
    {
      name = "section5 rhtalu, serial";
      engine = dense `Rhtalu;
      run = serial;
      queries = q;
      warm = 300;
    };
    {
      name = "section5 rh, serial";
      engine = dense `Rh;
      run = serial;
      queries = Array.sub q 0 120;
      warm = 20;
    };
    {
      name = "section5 rh, partitioned";
      engine = dense ~partitioned:true `Rh;
      run = partitioned;
      queries = q;
      warm = 300;
    };
  ]

(* (minor, direct major) words per auction over the counted stretch.
   Direct major words are the major words not promoted from the minor
   heap. *)
let words_per_auction s =
  let e = s.engine () in
  for i = 0 to s.warm - 1 do
    ignore (s.run e ~keyword:s.queries.(i))
  done;
  let minor0 = Gc.minor_words () in
  let _, promoted0, major0 = Gc.counters () in
  for i = s.warm to Array.length s.queries - 1 do
    ignore (s.run e ~keyword:s.queries.(i))
  done;
  let minor1 = Gc.minor_words () in
  let _, promoted1, major1 = Gc.counters () in
  let per x = x /. float_of_int (Array.length s.queries - s.warm) in
  Printf.printf "%s: %.3f promoted words per auction\n" s.name
    (per (promoted1 -. promoted0));
  (per (minor1 -. minor0), per (major1 -. major0 -. (promoted1 -. promoted0)))

(* Both checks of a stream read one measurement. *)
let measured = Hashtbl.create 4

let words s =
  match Hashtbl.find_opt measured s.name with
  | Some w -> w
  | None ->
      let w = words_per_auction s in
      Hashtbl.add measured s.name w;
      w

let check_ceiling ~what s words ceiling =
  Printf.printf "%s: %.6f %s words per auction, ceiling %.3f\n" s.name words
    what ceiling;
  if words > ceiling then
    Alcotest.failf "%s: %.3f %s words per auction, ceiling %.3f" s.name words
      what ceiling

let test_minor s () =
  check_ceiling ~what:"minor" s (fst (words s)) (fst (List.assoc s.name ceilings))

let test_direct_major s () =
  check_ceiling ~what:"direct major" s (snd (words s))
    (snd (List.assoc s.name ceilings))

(* The per-keyword spend-rate trigger heaps of a logical_p fleet hold
   superseded entries until popped; past 2n entries a heap drops them.
   On this stream several keywords pass 2n, so the drop runs; the digest
   of every summary, computed before the bound existed, pins that it
   changes no auction. *)
let test_trigger_heap_bound () =
  let n = 1000 and num_keywords = 10 in
  let w = Workload.section5 ~k:15 ~num_keywords ~seed:1 ~n () in
  let e =
    Workload.make_engine ~partitioned:true ~cache:false ~mechanism:`Classic w
      ~method_:`Rhtalu
  in
  let fleet = Engine.fleet e in
  let summaries =
    Array.map
      (fun keyword ->
        let s = Engine.run_partitioned e ~keyword in
        for kw = 0 to num_keywords - 1 do
          let pending =
            Essa_strategy.Roi_fleet.pending_time_triggers fleet ~keyword:kw
          in
          if pending > 2 * n then
            Alcotest.failf "keyword %d: %d pending triggers after auction %d"
              kw pending s.Engine.auction_time
        done;
        s)
      (Workload.queries w ~seed:2 ~count:12_000)
  in
  Alcotest.(check string) "summary digest" "5fa425353781d48c0f98532bec71b9c0"
    (Digest.to_hex (Digest.string (Marshal.to_string summaries [])))

let () =
  let streams = streams () in
  Alcotest.run "essa_cost"
    [
      ( "minor_words",
        List.map
          (fun s -> Alcotest.test_case s.name `Quick (test_minor s))
          streams );
      ( "direct_major",
        List.map
          (fun s -> Alcotest.test_case s.name `Quick (test_direct_major s))
          streams );
      ( "trigger_heaps",
        [
          Alcotest.test_case "section5 rhtalu, partitioned: pending <= 2n"
            `Quick test_trigger_heap_bound;
        ] );
    ]
