let log_src = Logs.Src.create "essa.experiment" ~doc:"Experiment harness"

module Log = (val Logs.src_log log_src)

type point = {
  n : int;
  auctions_measured : int;
  ms_per_auction : float;
  revenue : int;
}

type series = {
  label : string;
  method_ : Essa.Engine.method_;
  points : point list;
}

let method_label = function
  | `Lp -> "LP"
  | `Lp_dense -> "LPdense"
  | `H -> "H"
  | `Rh -> "RH"
  | `Rhtalu -> "RHTALU"

let measure_point ?metrics ~brand_fraction ~method_ ~seed ~n ~auctions ~warmup
    ~point_budget_ms () =
  let workload = Workload.section5 ~brand_fraction ~seed ~n () in
  let engine = Workload.make_engine ?metrics workload ~method_ in
  let queries = Workload.query_stream workload ~seed:(seed + 17) in
  let next =
    let state = ref queries in
    fun () ->
      match !state () with
      | Seq.Nil -> assert false
      | Seq.Cons (kw, rest) ->
          state := rest;
          kw
  in
  (* Warm up within (a third of) the point budget, so that a method whose
     single auction already costs seconds cannot stall the sweep. *)
  let tw = Essa_util.Timing.now_ns () in
  let warm_elapsed_ms () =
    Int64.to_float (Int64.sub (Essa_util.Timing.now_ns ()) tw) /. 1e6
  in
  let warmed = ref 0 in
  while !warmed < warmup && warm_elapsed_ms () < point_budget_ms /. 3.0 do
    ignore (Essa.Engine.run_auction engine ~keyword:(next ()));
    incr warmed
  done;
  let t0 = Essa_util.Timing.now_ns () in
  let elapsed_ms () =
    Int64.to_float (Int64.sub (Essa_util.Timing.now_ns ()) t0) /. 1e6
  in
  let measured = ref 0 in
  while !measured < auctions && (!measured = 0 || elapsed_ms () < point_budget_ms) do
    ignore (Essa.Engine.run_auction engine ~keyword:(next ()));
    incr measured
  done;
  let point =
    { n;
      auctions_measured = !measured;
      ms_per_auction = elapsed_ms () /. float_of_int !measured;
      revenue = Essa.Engine.total_revenue engine }
  in
  Log.info (fun m ->
      m "%s n=%d: %.3f ms/auction over %d auctions" (method_label method_) n
        point.ms_per_auction point.auctions_measured);
  point

let run_series ?metrics ?(warmup = 10) ?(point_budget_ms = 15_000.0)
    ?(give_up_ms = 5_000.0) ?(brand_fraction = 0.0) ~method_ ~seed ~ns ~auctions
    () =
  let rec go acc = function
    | [] -> List.rev acc
    | n :: rest ->
        let point =
          measure_point ?metrics ~brand_fraction ~method_ ~seed ~n ~auctions
            ~warmup ~point_budget_ms ()
        in
        if point.ms_per_auction > give_up_ms then List.rev (point :: acc)
        else go (point :: acc) rest
  in
  { label = method_label method_; method_; points = go [] ns }

let fig12 ?metrics ?(seed = 1)
    ?(ns = [ 250; 500; 1000; 2000; 3000; 4000; 5000 ]) ?(auctions = 100)
    ?brand_fraction () =
  List.map
    (fun method_ ->
      run_series ?metrics ?brand_fraction ~method_ ~seed ~ns ~auctions ())
    [ `Lp_dense; `Lp; `H; `Rh; `Rhtalu ]

let fig13 ?metrics ?(seed = 1)
    ?(ns = [ 1000; 2500; 5000; 10000; 15000; 20000 ]) ?(auctions = 1000)
    ?brand_fraction () =
  List.map
    (fun method_ ->
      run_series ?metrics ?brand_fraction ~method_ ~seed ~ns ~auctions ())
    [ `Rh; `Rhtalu ]

(* ------------------------------------------------------------------ *)
(* Reporting *)

let all_ns series_list =
  List.concat_map (fun s -> List.map (fun p -> p.n) s.points) series_list
  |> List.sort_uniq Int.compare

let find_point s n = List.find_opt (fun p -> p.n = n) s.points

let to_table series_list =
  let buf = Buffer.create 1024 in
  let ns = all_ns series_list in
  Buffer.add_string buf (Printf.sprintf "%8s" "n");
  List.iter
    (fun s -> Buffer.add_string buf (Printf.sprintf " %14s" (s.label ^ " (ms)")))
    series_list;
  Buffer.add_char buf '\n';
  List.iter
    (fun n ->
      Buffer.add_string buf (Printf.sprintf "%8d" n);
      List.iter
        (fun s ->
          match find_point s n with
          | Some p -> Buffer.add_string buf (Printf.sprintf " %14.3f" p.ms_per_auction)
          | None -> Buffer.add_string buf (Printf.sprintf " %14s" "-"))
        series_list;
      Buffer.add_char buf '\n')
    ns;
  Buffer.contents buf

let to_csv series_list =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "method,n,auctions,ms_per_auction,revenue\n";
  List.iter
    (fun s ->
      List.iter
        (fun p ->
          Buffer.add_string buf
            (Printf.sprintf "%s,%d,%d,%.6f,%d\n" s.label p.n
               p.auctions_measured p.ms_per_auction p.revenue))
        s.points)
    series_list;
  Buffer.contents buf

let to_ascii_plot ?(log_y = true) ?(height = 20) ?(width = 64) series_list =
  let points =
    List.concat_map (fun s -> List.map (fun p -> (s.label, p)) s.points) series_list
  in
  match points with
  | [] -> "(no data)\n"
  | _ ->
      let y_of p = if log_y then log10 (max 1e-4 p.ms_per_auction) else p.ms_per_auction in
      let xs = List.map (fun (_, p) -> float_of_int p.n) points in
      let ys = List.map (fun (_, p) -> y_of p) points in
      let fmin l = List.fold_left min (List.hd l) l in
      let fmax l = List.fold_left max (List.hd l) l in
      let x0 = fmin xs and x1 = fmax xs in
      let y0 = fmin ys and y1 = fmax ys in
      let x_span = if x1 > x0 then x1 -. x0 else 1.0 in
      let y_span = if y1 > y0 then y1 -. y0 else 1.0 in
      let grid = Array.make_matrix height width ' ' in
      let mark_of = function
        | "LP" -> 'L'
        | "LPdense" -> 'D'
        | "H" -> 'H'
        | "RH" -> 'R'
        | "RHTALU" -> 'T'
        | label -> label.[0]
      in
      List.iter
        (fun (label, p) ->
          let gx =
            int_of_float ((float_of_int p.n -. x0) /. x_span *. float_of_int (width - 1))
          in
          let gy =
            int_of_float ((y_of p -. y0) /. y_span *. float_of_int (height - 1))
          in
          grid.(height - 1 - gy).(gx) <- mark_of label)
        points;
      let buf = Buffer.create 2048 in
      let y_label row =
        let y = y0 +. (y_span *. float_of_int (height - 1 - row) /. float_of_int (height - 1)) in
        if log_y then Printf.sprintf "%8.2f" (10.0 ** y) else Printf.sprintf "%8.2f" y
      in
      Buffer.add_string buf
        (Printf.sprintf "ms/auction%s vs number of advertisers\n"
           (if log_y then " (log scale)" else ""));
      Array.iteri
        (fun row line ->
          Buffer.add_string buf (y_label row);
          Buffer.add_string buf " |";
          Buffer.add_string buf (String.init width (fun c -> line.(c)));
          Buffer.add_char buf '\n')
        grid;
      Buffer.add_string buf (String.make 10 ' ');
      Buffer.add_string buf (String.make (width + 1) '-');
      Buffer.add_char buf '\n';
      Buffer.add_string buf
        (Printf.sprintf "%10s n: %.0f .. %.0f   legend: %s\n" "" x0 x1
           (String.concat ", "
              (List.map (fun s -> Printf.sprintf "%c = %s" (mark_of s.label) s.label)
                 series_list)));
      Buffer.contents buf
