(* Tests for the observability substrate (essa_obs): histograms,
   counters, gauges, the registry, and the snapshot exporters. *)

open Essa_obs

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let check_contains what needle haystack =
  if not (contains ~needle haystack) then
    Alcotest.failf "%s: expected %S in:\n%s" what needle haystack

(* ------------------------------------------------------------------ *)
(* Histogram *)

let test_histogram_basics () =
  let h = Histogram.create () in
  Alcotest.(check int) "empty count" 0 (Histogram.count h);
  Alcotest.(check bool) "empty mean nan" true (Float.is_nan (Histogram.mean h));
  Alcotest.(check bool) "empty percentile nan" true
    (Float.is_nan (Histogram.percentile h 50.0));
  Alcotest.(check bool) "empty min_max" true (Histogram.min_max h = None);
  Histogram.record h 100;
  Histogram.record h 200;
  Histogram.record h 300;
  Alcotest.(check int) "count" 3 (Histogram.count h);
  Alcotest.(check int) "sum" 600 (Histogram.sum h);
  Alcotest.(check bool) "min_max exact" true (Histogram.min_max h = Some (100, 300));
  Alcotest.(check (float 1e-9)) "mean exact" 200.0 (Histogram.mean h)

let test_histogram_negative_clamps () =
  let h = Histogram.create () in
  Histogram.record h (-42);
  Alcotest.(check bool) "clamped to 0" true (Histogram.min_max h = Some (0, 0));
  (* The clamp is tallied, not silent: a negative sample means a clock
     was misused upstream. *)
  Alcotest.(check int) "clamp counted" 1 (Histogram.clamped h);
  Alcotest.(check int) "sum unpolluted" 0 (Histogram.sum h);
  Histogram.record h (-1);
  Histogram.record h 7;
  Alcotest.(check int) "only negatives counted" 2 (Histogram.clamped h);
  Alcotest.(check int) "all samples counted" 3 (Histogram.count h);
  let other = Histogram.create () in
  Histogram.record other (-5);
  Histogram.merge_into ~into:h other;
  Alcotest.(check int) "merge sums clamps" 3 (Histogram.clamped h);
  Histogram.reset h;
  Alcotest.(check int) "reset zeroes clamps" 0 (Histogram.clamped h)

let test_histogram_percentile_accuracy () =
  (* Samples 1..10_000: every quantile estimate must be within the
     layout's ~9.1% relative error bound of the exact value, and the
     extremes are exact because estimates clamp to observed min/max. *)
  let h = Histogram.create () in
  for v = 1 to 10_000 do
    Histogram.record h v
  done;
  Alcotest.(check (float 1e-9)) "p0 exact" 1.0 (Histogram.percentile h 0.0);
  Alcotest.(check (float 1e-9)) "p100 exact" 10_000.0
    (Histogram.percentile h 100.0);
  List.iter
    (fun q ->
      let exact = q /. 100.0 *. 10_000.0 in
      let est = Histogram.percentile h q in
      let rel = Float.abs (est -. exact) /. exact in
      if rel > 0.091 then
        Alcotest.failf "p%g: estimate %g vs exact %g (rel %.3f)" q est exact rel)
    [ 10.0; 25.0; 50.0; 90.0; 99.0 ]

let test_histogram_percentile_clamps_q () =
  let h = Histogram.create () in
  Histogram.record h 5;
  Histogram.record h 7;
  Alcotest.(check (float 1e-9)) "q<0 -> min" 5.0 (Histogram.percentile h (-3.0));
  Alcotest.(check (float 1e-9)) "q>100 -> max" 7.0 (Histogram.percentile h 200.0);
  Alcotest.check_raises "NaN q"
    (Invalid_argument "Histogram.percentile: NaN percentile") (fun () ->
      ignore (Histogram.percentile h Float.nan))

let test_histogram_overflow_bucket () =
  let h = Histogram.create () in
  let big = 300_000_000_000 (* past the 200 s default upper bound *) in
  Histogram.record h 10;
  Histogram.record h big;
  Alcotest.(check int) "both counted" 2 (Histogram.count h);
  Alcotest.(check bool) "max exact" true (Histogram.min_max h = Some (10, big));
  Alcotest.(check (float 1e-9)) "p100 from overflow bucket" (float_of_int big)
    (Histogram.percentile h 100.0)

let test_histogram_percentile_edges () =
  (* All samples landing in a single bucket: estimates must stay inside
     the observed [min, max] envelope, with the extremes exact. *)
  let h = Histogram.create ~bounds:[| 10; 100 |] () in
  List.iter (Histogram.record h) [ 3; 5; 7 ];
  Alcotest.(check (float 1e-9)) "one bucket: p0 = min" 3.0
    (Histogram.percentile h 0.0);
  Alcotest.(check (float 1e-9)) "one bucket: p100 = max" 7.0
    (Histogram.percentile h 100.0);
  let p50 = Histogram.percentile h 50.0 in
  Alcotest.(check bool) "one bucket: p50 within envelope" true
    (p50 >= 3.0 && p50 <= 7.0);
  (* Every sample in the overflow bucket (> last bound): the bucket's
     effective upper edge is the observed max, not infinity, so the
     interpolation cannot run away. *)
  let o = Histogram.create ~bounds:[| 10 |] () in
  List.iter (Histogram.record o) [ 15; 18; 20 ];
  Alcotest.(check (float 1e-9)) "overflow: p0 = min" 15.0
    (Histogram.percentile o 0.0);
  Alcotest.(check (float 1e-9)) "overflow: p100 = max" 20.0
    (Histogram.percentile o 100.0);
  let p50 = Histogram.percentile o 50.0 in
  Alcotest.(check bool) "overflow: p50 within envelope" true
    (p50 >= 15.0 && p50 <= 20.0);
  (* A single sample: every quantile is that sample. *)
  let s = Histogram.create () in
  Histogram.record s 42;
  List.iter
    (fun q ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "single sample p%g" q)
        42.0 (Histogram.percentile s q))
    [ 0.0; 50.0; 99.9; 100.0 ]

let test_histogram_merge () =
  let a = Histogram.create () and b = Histogram.create () in
  for v = 1 to 500 do
    Histogram.record a v
  done;
  for v = 501 to 1000 do
    Histogram.record b v
  done;
  Histogram.merge_into ~into:a b;
  Alcotest.(check int) "merged count" 1000 (Histogram.count a);
  Alcotest.(check bool) "merged min_max" true (Histogram.min_max a = Some (1, 1000));
  (* Merged quantiles stay within the error bound: the layouts agree. *)
  let est = Histogram.percentile a 50.0 in
  Alcotest.(check bool) "merged p50 sane" true
    (Float.abs (est -. 500.0) /. 500.0 <= 0.091)

let test_histogram_merge_is_one_recorder () =
  (* Recording two streams apart and merging must be indistinguishable
     from recording both into one histogram — the contract the server's
     lanes rely on.  Negative samples exercise the clamp tally. *)
  let rng = Essa_util.Rng.create 11 in
  let draw () = Essa_util.Rng.int rng 2_000_000 - 1_000 in
  let a = Histogram.create () and b = Histogram.create () in
  let one = Histogram.create () in
  for _ = 1 to 3_000 do
    let v = draw () in
    Histogram.record a v;
    Histogram.record one v
  done;
  for _ = 1 to 2_000 do
    let v = draw () in
    Histogram.record b v;
    Histogram.record one v
  done;
  Histogram.merge_into ~into:a b;
  Alcotest.(check int) "count" (Histogram.count one) (Histogram.count a);
  Alcotest.(check int) "sum" (Histogram.sum one) (Histogram.sum a);
  Alcotest.(check int) "clamped" (Histogram.clamped one) (Histogram.clamped a);
  Alcotest.(check bool) "some clamped" true (Histogram.clamped a > 0);
  Alcotest.(check bool) "min_max" true (Histogram.min_max one = Histogram.min_max a);
  let buckets h =
    let acc = ref [] in
    Histogram.iter_nonempty_cumulative h (fun ~upper ~cumulative ->
        acc := (upper, cumulative) :: !acc);
    List.rev !acc
  in
  Alcotest.(check bool) "buckets" true (buckets one = buckets a);
  List.iter
    (fun q ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "p%g" q) (Histogram.percentile one q) (Histogram.percentile a q))
    [ 0.0; 50.0; 90.0; 99.0; 100.0 ];
  Alcotest.(check int) "source untouched" 2_000 (Histogram.count b)

let test_histogram_merge_mismatch () =
  let a = Histogram.create ~bounds:[| 1; 10; 100 |] () in
  let b = Histogram.create () in
  Alcotest.(check bool) "custom-vs-default rejected" true
    (match Histogram.merge_into ~into:a b with
    | exception Invalid_argument _ -> true
    | () -> false);
  (* Two custom layouts that disagree must also be rejected — a silent
     merge would misattribute every sample past the shorter layout. *)
  let c = Histogram.create ~bounds:[| 1; 10 |] () in
  Histogram.record a 5;
  Histogram.record c 5;
  Alcotest.(check bool) "mismatched custom bounds rejected" true
    (match Histogram.merge_into ~into:a c with
    | exception Invalid_argument _ -> true
    | () -> false);
  Alcotest.(check int) "target untouched by rejected merge" 1
    (Histogram.count a)

let test_histogram_invalid_bounds () =
  let rejected bounds =
    match Histogram.create ~bounds () with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "empty" true (rejected [||]);
  Alcotest.(check bool) "non-increasing" true (rejected [| 5; 5; 9 |]);
  Alcotest.(check bool) "first < 1" true (rejected [| 0; 5 |])

let test_histogram_reset () =
  let h = Histogram.create () in
  Histogram.record h 9;
  Histogram.reset h;
  Alcotest.(check int) "count" 0 (Histogram.count h);
  Alcotest.(check bool) "min_max" true (Histogram.min_max h = None)

let test_histogram_cumulative_iter () =
  let h = Histogram.create ~bounds:[| 10; 100; 1000 |] () in
  List.iter (Histogram.record h) [ 5; 7; 50; 2000 ];
  let seen = ref [] in
  Histogram.iter_nonempty_cumulative h (fun ~upper ~cumulative ->
      seen := (upper, cumulative) :: !seen);
  Alcotest.(check bool) "cumulative shape" true
    (List.rev !seen = [ (Some 10, 2); (Some 100, 3); (None, 4) ])

let test_histogram_record_no_alloc () =
  let h = Histogram.create () in
  Histogram.record h 1 (* warm any lazy paths *);
  let before = Gc.minor_words () in
  for v = 1 to 10_000 do
    Histogram.record h v
  done;
  let words = Gc.minor_words () -. before in
  (* Zero in practice; small slack for instrumentation noise. *)
  Alcotest.(check bool)
    (Printf.sprintf "allocation-free record path (%.0f words)" words)
    true (words < 256.0)

(* ------------------------------------------------------------------ *)
(* Counter / Gauge *)

let test_counter () =
  let c = Counter.create () in
  Counter.incr c;
  Counter.add c 41;
  Alcotest.(check int) "value" 42 (Counter.value c);
  Alcotest.(check bool) "negative add rejected" true
    (match Counter.add c (-1) with
    | exception Invalid_argument _ -> true
    | () -> false);
  Counter.reset c;
  Alcotest.(check int) "reset" 0 (Counter.value c)

let test_counter_atomic_across_domains () =
  (* The serving layer's partitioned mode bumps shared engine counters
     from several lane domains at once: increments must never be lost. *)
  let c = Counter.create () in
  let domains = 4 and per_domain = 25_000 in
  let workers =
    List.init domains (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to per_domain do
              if (i + d) mod 5 = 0 then Counter.add c 2 else Counter.incr c
            done))
  in
  List.iter Domain.join workers;
  (* Any window of [per_domain] consecutive offsets holds exactly
     [per_domain / 5] multiples of 5, whatever [d] is. *)
  let doubles = per_domain / 5 in
  let expected = domains * (per_domain - doubles + (2 * doubles)) in
  Alcotest.(check int) "no lost increments" expected (Counter.value c)

let test_gauge () =
  let g = Gauge.create ~initial:2.5 () in
  Alcotest.(check (float 1e-9)) "initial" 2.5 (Gauge.value g);
  Gauge.set g 7.0;
  Gauge.add g (-3.0);
  Alcotest.(check (float 1e-9)) "set+add" 4.0 (Gauge.value g)

(* ------------------------------------------------------------------ *)
(* Registry *)

let test_registry_get_or_create () =
  let reg = Registry.create () in
  let a = Registry.counter ~help:"first" reg "essa.test.c" in
  let b = Registry.counter ~help:"ignored" reg "essa.test.c" in
  Alcotest.(check bool) "same handle" true (a == b);
  Counter.incr a;
  Alcotest.(check int) "shared state" 1 (Counter.value b)

let test_registry_kind_mismatch () =
  let reg = Registry.create () in
  ignore (Registry.counter reg "essa.test.x");
  Alcotest.(check bool) "kind clash rejected" true
    (match Registry.gauge reg "essa.test.x" with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_registry_invalid_name () =
  let reg = Registry.create () in
  List.iter
    (fun name ->
      Alcotest.(check bool)
        (Printf.sprintf "name %S rejected" name)
        true
        (match Registry.counter reg name with
        | exception Invalid_argument _ -> true
        | _ -> false))
    [ ""; "has space"; "has-dash"; "newline\n" ]

let test_registry_entries_order () =
  let reg = Registry.create () in
  ignore (Registry.counter reg "b");
  ignore (Registry.gauge reg "a");
  ignore (Registry.histogram reg "c");
  Alcotest.(check (list string)) "registration order" [ "b"; "a"; "c" ]
    (List.map (fun e -> e.Registry.name) (Registry.entries reg))

let test_registry_find () =
  let reg = Registry.create () in
  let h = Registry.histogram reg "essa.test.h" in
  Histogram.record h 5;
  (match Registry.find reg "essa.test.h" with
  | Some (Registry.Histogram h') -> Alcotest.(check int) "found" 1 (Histogram.count h')
  | _ -> Alcotest.fail "expected histogram");
  Alcotest.(check bool) "absent" true (Registry.find reg "nope" = None)

(* ------------------------------------------------------------------ *)
(* Export *)

let sample_registry () =
  let reg = Registry.create () in
  Counter.add (Registry.counter ~help:"auctions run" reg "essa.auctions") 42;
  Gauge.set (Registry.gauge reg "essa.load") 0.75;
  let h = Registry.histogram ~help:"latency" reg "essa.auction.total_ns" in
  List.iter (Histogram.record h) [ 100; 200; 400; 800 ];
  reg

let test_export_text () =
  let s = Export.to_text (sample_registry ()) in
  check_contains "counter line" "counter essa.auctions 42" s;
  check_contains "gauge line" "gauge essa.load 0.75" s;
  check_contains "histogram stats" "histogram essa.auction.total_ns count=4 sum=1500" s;
  check_contains "min/max" "min=100 max=800" s;
  check_contains "p50" "p50=" s;
  check_contains "p99" "p99=" s

let test_export_json () =
  let s = Export.to_json (sample_registry ()) in
  check_contains "counter" "\"essa.auctions\": {\"help\": \"auctions run\", \"type\": \"counter\", \"value\": 42}" s;
  check_contains "gauge" "\"type\": \"gauge\", \"value\": 0.75" s;
  check_contains "histogram count" "\"count\": 4, \"sum\": 1500" s;
  check_contains "buckets" "\"buckets\": [" s;
  (* Balanced braces/brackets — cheap structural sanity without a JSON
     parser in the dependency set. *)
  let count c = String.fold_left (fun acc x -> if x = c then acc + 1 else acc) 0 s in
  Alcotest.(check int) "balanced braces" (count '{') (count '}');
  Alcotest.(check int) "balanced brackets" (count '[') (count ']')

let test_export_json_escaping () =
  let reg = Registry.create () in
  ignore (Registry.counter ~help:"has \"quotes\" and \\ and \ttab" reg "c");
  let s = Export.to_json reg in
  check_contains "escaped" "has \\\"quotes\\\" and \\\\ and \\ttab" s

let test_export_prometheus () =
  let s = Export.to_prometheus (sample_registry ()) in
  check_contains "sanitized counter" "essa_auctions 42" s;
  check_contains "counter type" "# TYPE essa_auctions counter" s;
  check_contains "help" "# HELP essa_auctions auctions run" s;
  check_contains "histogram type" "# TYPE essa_auction_total_ns histogram" s;
  check_contains "+Inf bucket" "essa_auction_total_ns_bucket{le=\"+Inf\"} 4" s;
  check_contains "sum" "essa_auction_total_ns_sum 1500" s;
  check_contains "count" "essa_auction_total_ns_count 4" s

let test_export_prometheus_cumulative () =
  let reg = Registry.create () in
  let h = Registry.histogram ~bounds:[| 10; 100 |] reg "h" in
  List.iter (Histogram.record h) [ 5; 50; 5000 ];
  let s = Export.to_prometheus reg in
  check_contains "first bucket" "h_bucket{le=\"10\"} 1" s;
  check_contains "second bucket" "h_bucket{le=\"100\"} 2" s;
  check_contains "inf bucket" "h_bucket{le=\"+Inf\"} 3" s

let test_export_format_helpers () =
  Alcotest.(check bool) "text" true (Export.format_of_string "text" = Some `Text);
  Alcotest.(check bool) "txt" true (Export.format_of_string "txt" = Some `Text);
  Alcotest.(check bool) "json" true (Export.format_of_string "json" = Some `Json);
  Alcotest.(check bool) "prom" true
    (Export.format_of_string "prom" = Some `Prometheus);
  Alcotest.(check bool) "prometheus" true
    (Export.format_of_string "prometheus" = Some `Prometheus);
  Alcotest.(check bool) "unknown" true (Export.format_of_string "yaml" = None);
  Alcotest.(check string) "ext text" "txt" (Export.extension `Text);
  Alcotest.(check string) "ext json" "json" (Export.extension `Json);
  Alcotest.(check string) "ext prom" "prom" (Export.extension `Prometheus);
  let reg = sample_registry () in
  Alcotest.(check string) "render text" (Export.to_text reg) (Export.render `Text reg)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "essa_obs"
    [
      ( "histogram",
        [
          Alcotest.test_case "basics" `Quick test_histogram_basics;
          Alcotest.test_case "negative clamps" `Quick test_histogram_negative_clamps;
          Alcotest.test_case "percentile accuracy" `Quick
            test_histogram_percentile_accuracy;
          Alcotest.test_case "percentile clamps q" `Quick
            test_histogram_percentile_clamps_q;
          Alcotest.test_case "overflow bucket" `Quick test_histogram_overflow_bucket;
          Alcotest.test_case "percentile edges" `Quick
            test_histogram_percentile_edges;
          Alcotest.test_case "merge" `Quick test_histogram_merge;
          Alcotest.test_case "merge = one recorder" `Quick
            test_histogram_merge_is_one_recorder;
          Alcotest.test_case "merge mismatch" `Quick test_histogram_merge_mismatch;
          Alcotest.test_case "invalid bounds" `Quick test_histogram_invalid_bounds;
          Alcotest.test_case "reset" `Quick test_histogram_reset;
          Alcotest.test_case "cumulative iter" `Quick test_histogram_cumulative_iter;
          Alcotest.test_case "record allocates nothing" `Quick
            test_histogram_record_no_alloc;
        ] );
      ( "counter_gauge",
        [
          Alcotest.test_case "counter" `Quick test_counter;
          Alcotest.test_case "counter atomic across domains" `Quick
            test_counter_atomic_across_domains;
          Alcotest.test_case "gauge" `Quick test_gauge;
        ] );
      ( "registry",
        [
          Alcotest.test_case "get-or-create" `Quick test_registry_get_or_create;
          Alcotest.test_case "kind mismatch" `Quick test_registry_kind_mismatch;
          Alcotest.test_case "invalid names" `Quick test_registry_invalid_name;
          Alcotest.test_case "entries order" `Quick test_registry_entries_order;
          Alcotest.test_case "find" `Quick test_registry_find;
        ] );
      ( "export",
        [
          Alcotest.test_case "text" `Quick test_export_text;
          Alcotest.test_case "json" `Quick test_export_json;
          Alcotest.test_case "json escaping" `Quick test_export_json_escaping;
          Alcotest.test_case "prometheus" `Quick test_export_prometheus;
          Alcotest.test_case "prometheus cumulative" `Quick
            test_export_prometheus_cumulative;
          Alcotest.test_case "format helpers" `Quick test_export_format_helpers;
        ] );
    ]
