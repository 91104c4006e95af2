module Sstore = Essa_strategy.State_store

type method_ = [ `Lp | `Lp_dense | `H | `Rh | `Rhtalu ]
type pricing = [ `Gsp | `Vcg | `Pay_as_bid ]

(* Per-auction mutable workspace: the score matrix (every method but
   `Rhtalu), the reduced-pricing-view scratch and the top-k buffers,
   owned by whoever runs the auction so the drivers allocate O(k²) small
   views instead of a fresh Set/Hashtbl/list chain per auction.
   Everything is indexed by keyword-view slot: the advertiser id on
   dense engines, the partition slot on flat ones.
   [stamp.(i) = stamp_token] marks slot i as a member of the current
   auction's reduced set, and [local_of.(i)] is then its row in the
   reduced matrix.  The serial engine owns one; the partitioned engine
   gives each keyword its own (lazily), so concurrent lanes never share
   scratch. *)
type scratch = {
  (* One row of k scores per view slot, filled once per auction by
     [score_rows] ([||] for `Rhtalu, which never scores every row). *)
  w_buffer : float array array;
  stamp : int array;
  mutable stamp_token : int;
  local_of : int array;
  reduced_advs : int array;            (* capacity k·(k+1) candidates *)
  reduced_w_rows : float array array;  (* `Rhtalu's reduced matrix *)
  (* Threshold-algorithm workspace of the SoA fast path (`Rhtalu only): a
     stamp array for the per-slot seen set (no Hashtbl) and the effective
     bids by advertiser. *)
  ta_seen : int array;
  mutable ta_token : int;
  ta_eff : float array;
  (* The insertion-sorted top-(k+1) buffers of [Reduction.select] and the
     TA. *)
  tk_ids : int array;
  tk_scores : float array;
  tk_slots : int array;
  (* A dense keyword view's identity ids and effective bids, made on the
     first dense view this scratch serves ([||] until then). *)
  mutable dense_ids : int array;
  mutable dense_bids : int array;
  (* Per-auction access-statistic tallies, zeroed at the top of winner
     determination and folded into the shared counters as usual: the
     evaluation cache stores them with the entry so a hit can re-report
     the cold run's essa.ta.* / reduction counters bit-for-bit. *)
  mutable wd_ta_sorted : int;
  mutable wd_ta_random : int;
  mutable wd_ta_seen : int;
  mutable wd_reduced : int;
}

(* [n] is the index space of the view slots: the fleet size on dense
   engines, the keyword partition's capacity on flat ones. *)
let make_scratch ~method_ ~n ~k =
  let ta = method_ = `Rhtalu in
  let reduced_capacity = min n (k * (k + 1)) in
  {
    w_buffer = (if ta then [||] else Array.make_matrix n k 0.0);
    stamp = Array.make n 0;
    stamp_token = 0;
    local_of = Array.make n 0;
    reduced_advs = Array.make reduced_capacity 0;
    reduced_w_rows =
      (if ta then Array.make_matrix reduced_capacity k 0.0 else [||]);
    ta_seen = (if ta then Array.make n 0 else [||]);
    ta_token = 0;
    ta_eff = (if ta then Array.make n 0.0 else [||]);
    tk_ids = Array.make (k + 1) 0;
    tk_scores = Array.make (k + 1) 0.0;
    tk_slots = Array.make (k + 1) 0;
    dense_ids = [||];
    dense_bids = [||];
    wd_ta_sorted = 0;
    wd_ta_random = 0;
    wd_ta_seen = 0;
    wd_reduced = 0;
  }

type ctx = {
  x_method : method_;
  x_n : int;
  x_k : int;
  x_reserve : int;
  x_ctr : float array array;
  x_ctr_ids : int array array;
  x_ctr_vals : float array array;
  x_ctr_cols : float array array;
  x_premiums : int array array;
  x_prem_ids : int array array;
  x_prem_vals : float array array;
  x_fleet : Essa_strategy.Roi_fleet.t;
  x_c_ta_sorted : Essa_obs.Counter.t;
  x_c_ta_random : Essa_obs.Counter.t;
  x_c_ta_seen : Essa_obs.Counter.t;
  x_c_reduced : Essa_obs.Counter.t;
}

type keyword_view = {
  kv_ids : int array;
  kv_bids : int array;
  kv_prems : int array;
  kv_len : int;
  kv_live : int;
}

type view =
  | Full of float array array
  | Reduced of {
      advertisers : int array;
      w : float array array;
      top : (int * float) list array;
    }
  | Scored of { kv : keyword_view; winners : int array; w : float array array }
  | Priced of int array

type eval = { e_assignment : Essa_matching.Assignment.t; e_view : view }

module type S = sig
  val name : string
  val winner_determination : ctx -> scratch -> keyword:int -> eval
  val price : ctx -> scratch -> keyword:int -> eval -> int array

  val cheap :
    ctx -> scratch -> keyword:int -> Essa_matching.Assignment.t * int array
end

let reset_wd_stats s =
  s.wd_ta_sorted <- 0;
  s.wd_ta_random <- 0;
  s.wd_ta_seen <- 0;
  s.wd_reduced <- 0

(* The one place the mechanism layer tells the store layouts apart.  A
   flat partition hands over its slot arrays as they are; a dense fleet
   is a view of n slots, slot i being advertiser i, whose effective bids
   are read into the scratch. *)
let keyword_view x s ~keyword =
  let fleet = x.x_fleet in
  if Essa_strategy.Roi_fleet.is_flat fleet then begin
    let store = Essa_strategy.Roi_fleet.store_of fleet in
    let fv = Sstore.flat_view store ~keyword in
    {
      kv_ids = fv.Sstore.fv_members;
      kv_bids = fv.Sstore.fv_bids;
      kv_prems = fv.Sstore.fv_premiums;
      kv_len = fv.Sstore.fv_len;
      kv_live = fv.Sstore.fv_live;
    }
  end
  else begin
    let n = x.x_n in
    if Array.length s.dense_bids < n then begin
      s.dense_ids <- Array.init n Fun.id;
      s.dense_bids <- Array.make n 0
    end;
    let bids = s.dense_bids in
    for i = 0 to n - 1 do
      bids.(i) <- Essa_strategy.Roi_fleet.bid fleet ~adv:i ~keyword
    done;
    {
      kv_ids = s.dense_ids;
      kv_bids = bids;
      kv_prems = x.x_premiums.(keyword);
      kv_len = n;
      kv_live = n;
    }
  end

let live_slots kv =
  let slots = Array.make kv.kv_live 0 and live = ref 0 in
  for slot = 0 to kv.kv_len - 1 do
    if kv.kv_ids.(slot) >= 0 then begin
      slots.(!live) <- slot;
      incr live
    end
  done;
  slots

(* Expected revenue of every live view slot on every ad slot, into the
   scratch's score rows: w(i,j) = ctr(i,j) · bid_i, slot 1 adding the
   Click∧Slot1 premium, and an all-zero row for a sub-[reserve] bid
   (zero-weight edges are never matched).  The same float expressions as
   the TA's aggregation, which keeps RH and RHTALU bit-identical. *)
let score_rows x s ~reserve kv =
  let k = x.x_k and rows = s.w_buffer in
  let ids = kv.kv_ids and bids = kv.kv_bids and prems = kv.kv_prems in
  for slot = 0 to kv.kv_len - 1 do
    let gid = ids.(slot) in
    if gid >= 0 then begin
      let row = rows.(slot) and bid_c = bids.(slot) in
      if bid_c < reserve then Array.fill row 0 k 0.0
      else begin
        let b = float_of_int bid_c and ctr = x.x_ctr.(gid) in
        row.(0) <- ctr.(0) *. (b +. float_of_int prems.(slot));
        for j = 1 to k - 1 do
          row.(j) <- ctr.(j) *. b
        done
      end
    end
  done

let fill_weights x s ~reserve ~keyword =
  score_rows x s ~reserve (keyword_view x s ~keyword);
  s.w_buffer

(* SoA replica of [Essa_ta.Threshold.top_k] for the auction's three
   concrete sources, eliminating the generic machinery's per-access cost
   (Seq nodes, closure dispatch, the Hashtbl seen-set, the boxed top-k
   heap).  The control flow is a line-for-line copy of the generic loop —
   round-robin sorted access in source order (ctr, bids, premium), full
   resolve of each new object, τ from the last values seen, the strict
   stop rule [min top-k score > τ], canonical ties (higher score, then
   smaller id) — and the access statistics are counted identically, so
   the result lists *and* the essa.ta.* counters are bit-identical to the
   generic TA over closure sources.  That generic TA is kept as the test
   oracle of this path ("SoA fast TA = generic TA" in test_mechanism).

   Sorted access on the maintained bid lists is an inline merge of the
   fleet's persistent sorted views ({!Essa_strategy.Roi_fleet.sorted_views}):
   for logical fleets, the adjustment lists' own sorted arrays, read in
   place with no per-auction copy.  The seen set is a stamp array and the
   top-(k+1) buffer an insertion-sorted pair of parallel arrays, both in
   the per-auction scratch, so a TA open allocates nothing but the k
   result lists. *)
let ta_top_lists x s ~reserve ~keyword ~count =
  let views = Essa_strategy.Roi_fleet.sorted_views x.x_fleet ~keyword in
  let nv = Array.length views in
  (* Hoist the view fields and the random-access closure out of the
     per-access loops. *)
  let v_ids = Array.map (fun v -> v.Essa_strategy.Roi_fleet.sv_ids) views in
  let v_bids = Array.map (fun v -> v.Essa_strategy.Roi_fleet.sv_bids) views in
  let v_adj = Array.map (fun v -> v.Essa_strategy.Roi_fleet.sv_adjust) views in
  let v_len = Array.map (fun v -> v.Essa_strategy.Roi_fleet.sv_len) views in
  let n = x.x_n in
  (* The views partition the advertisers (one view of all n for explicit
     strategies; the inc/dec/const lists for logical ones), so scattering
     them through the id axis yields every advertiser's effective bid as
     one unboxed float read — the random access of the TA resolve step,
     without a closure call per object. *)
  let eff = s.ta_eff in
  let filled = ref 0 in
  for v = 0 to Array.length views - 1 do
    let ids = v_ids.(v) and bids = v_bids.(v) in
    let adj = v_adj.(v) and len = v_len.(v) in
    for i = 0 to len - 1 do
      eff.(ids.(i)) <- float_of_int (bids.(i) + adj)
    done;
    filled := !filled + len
  done;
  assert (!filled = n);
  let reserve = float_of_int reserve in
  let premiums = x.x_premiums.(keyword) in
  let prem_ids = x.x_prem_ids.(keyword) and prem_vals = x.x_prem_vals.(keyword) in
  let seen = s.ta_seen in
  let tk_ids = s.tk_ids and tk_scores = s.tk_scores in
  let vcur = Array.make nv 0 in
  let tops = Array.make x.x_k [] in
  (* Cached merge heads: hd_bid.(v) / hd_id.(v) mirror the entry at
     vcur.(v), recomputed only when view v is consumed — the merge pick is
     then a scan of scalars.  hd_bid = min_int marks a drained view. *)
  let hd_bid = Array.make nv 0 and hd_id = Array.make nv 0 in
  for j = 0 to x.x_k - 1 do
    let d = if j = 0 then 3 else 2 in
    let ctr_ids = x.x_ctr_ids.(j) and ctr_vals = x.x_ctr_vals.(j) in
    let ctr_col = x.x_ctr_cols.(j) in
    s.ta_token <- s.ta_token + 1;
    let token = s.ta_token in
    let tk_size = ref 0 in
    let c_ctr = ref 0 and c_prem = ref 0 in
    Array.fill vcur 0 nv 0;
    for v = 0 to nv - 1 do
      if v_len.(v) > 0 then begin
        hd_id.(v) <- v_ids.(v).(0);
        hd_bid.(v) <- v_bids.(v).(0) + v_adj.(v)
      end
      else hd_bid.(v) <- min_int
    done;
    let last_ctr = ref infinity
    and last_bid = ref infinity
    and last_prem = ref infinity in
    let exh_ctr = ref false and exh_bid = ref false and exh_prem = ref false in
    let yld_ctr = ref false and yld_bid = ref false and yld_prem = ref false in
    let sorted_accesses = ref 0
    and random_accesses = ref 0
    and seen_objects = ref 0 in
    let resolve id =
      if seen.(id) <> token then begin
        seen.(id) <- token;
        incr seen_objects;
        random_accesses := !random_accesses + d;
        let b = eff.(id) in
        (* Same float expressions as the generic sources' [f]: sub-reserve
           bids score 0, slot 1 carries the Click∧Slot1 premium. *)
        let sc =
          if b < reserve then 0.0
          else if j = 0 then ctr_col.(id) *. (b +. float_of_int premiums.(id))
          else ctr_col.(id) *. b
        in
        (* Offer to the insertion-sorted top-[count] buffer; canonical
           order: higher score first, ties to the smaller id. *)
        let full = !tk_size >= count in
        let accept =
          count > 0
          && ((not full)
             ||
             let ms = tk_scores.(count - 1) in
             sc > ms || (sc = ms && id < tk_ids.(count - 1)))
        in
        if accept then begin
          let p = ref (if full then count - 1 else !tk_size) in
          if not full then incr tk_size;
          while
            !p > 0
            && (let ps = tk_scores.(!p - 1) in
                sc > ps || (sc = ps && id < tk_ids.(!p - 1)))
          do
            tk_scores.(!p) <- tk_scores.(!p - 1);
            tk_ids.(!p) <- tk_ids.(!p - 1);
            decr p
          done;
          tk_scores.(!p) <- sc;
          tk_ids.(!p) <- id
        end
      end
    in
    (* One round of the generic loop — step every source in order (ctr,
       bids, premium), then test the strict stop rule — with the step and
       τ bodies inlined into the round loop: these run a few thousand
       times per auction, and on the non-flambda backend each would
       otherwise be an uninlined closure call. *)
    let running = ref true in
    while !running do
      if !exh_ctr && !exh_bid && (d < 3 || !exh_prem) then running := false
      else begin
        (* step ctr *)
        if not !exh_ctr then begin
          if !c_ctr >= n then exh_ctr := true
          else begin
            let id = ctr_ids.(!c_ctr) in
            last_ctr := ctr_vals.(!c_ctr);
            incr c_ctr;
            incr sorted_accesses;
            yld_ctr := true;
            resolve id
          end
        end;
        (* step bids: head of the ≤3-way merge of the sorted views —
           effective bid descending, id ascending, exactly the
           [bids_desc] order.  Heads are cached scalars; bids are
           non-negative, so min_int marks a drained view. *)
        if not !exh_bid then begin
          let best = ref (-1) and best_id = ref 0 and best_bid = ref min_int in
          for v = 0 to nv - 1 do
            let b = hd_bid.(v) in
            if b <> min_int then begin
              let id = hd_id.(v) in
              if !best < 0 || b > !best_bid || (b = !best_bid && id < !best_id)
              then begin
                best := v;
                best_id := id;
                best_bid := b
              end
            end
          done;
          if !best < 0 then exh_bid := true
          else begin
            let v = !best in
            let c = vcur.(v) + 1 in
            vcur.(v) <- c;
            if c < v_len.(v) then begin
              hd_id.(v) <- v_ids.(v).(c);
              hd_bid.(v) <- v_bids.(v).(c) + v_adj.(v)
            end
            else hd_bid.(v) <- min_int;
            incr sorted_accesses;
            yld_bid := true;
            last_bid := float_of_int !best_bid;
            resolve !best_id
          end
        end;
        (* step premium (slot 1 only) *)
        if d = 3 && not !exh_prem then begin
          if !c_prem >= n then exh_prem := true
          else begin
            let id = prem_ids.(!c_prem) in
            last_prem := prem_vals.(!c_prem);
            incr c_prem;
            incr sorted_accesses;
            yld_prem := true;
            resolve id
          end
        end;
        (* Strict stop rule: min top-[count] score > τ, where τ is f of
           the last values seen, collapsing to -inf once every source is
           drained or any source was exhausted without yielding. *)
        if !tk_size >= count then begin
          if count = 0 then running := false
          else begin
            let tau =
              let all_drained = !exh_ctr && !exh_bid && (d < 3 || !exh_prem) in
              let empty_list =
                (!exh_ctr && not !yld_ctr)
                || (!exh_bid && not !yld_bid)
                || (d = 3 && !exh_prem && not !yld_prem)
              in
              if all_drained || empty_list then neg_infinity
              else if !last_bid < reserve then 0.0
              else if d = 3 then !last_ctr *. (!last_bid +. !last_prem)
              else !last_ctr *. !last_bid
            in
            if tk_scores.(count - 1) > tau then running := false
          end
        end
      end
    done;
    let rec build i acc =
      if i < 0 then acc else build (i - 1) ((tk_ids.(i), tk_scores.(i)) :: acc)
    in
    tops.(j) <- build (!tk_size - 1) [];
    Essa_obs.Counter.add x.x_c_ta_sorted !sorted_accesses;
    Essa_obs.Counter.add x.x_c_ta_random !random_accesses;
    Essa_obs.Counter.add x.x_c_ta_seen !seen_objects;
    (* Keep a per-auction copy in the (lane-private) scratch: the shared
       counters are cross-lane atomics, so diffing them around one auction
       would race; these tallies are what the evaluation cache stores. *)
    s.wd_ta_sorted <- s.wd_ta_sorted + !sorted_accesses;
    s.wd_ta_random <- s.wd_ta_random + !random_accesses;
    s.wd_ta_seen <- s.wd_ta_seen + !seen_objects
  done;
  tops

(* Degraded winner determination: one pass over the keyword view taking
   the top-k live slots by slot-1 expected revenue (same float expression
   as [score_rows]), assigned greedily to slots 1..k.  O(n log k), no
   Hungarian, no reduced view — the deadline fallback tier.  Prices are
   pay-as-bid (plus the slot-1 premium), floored at the reserve: under a
   blown budget the system serves *something* billable rather than
   computing incentive-clean prices it has no time for. *)
let cheap_allocation x s ~reserve ~keyword =
  let kv = keyword_view x s ~keyword in
  let ids = kv.kv_ids and bids = kv.kv_bids and prems = kv.kv_prems in
  let top =
    Essa_util.Topk.create ~k:x.x_k
      ~compare:(fun (sa, ia, _) (sb, ib, _) ->
        let c = Float.compare sa sb in
        if c <> 0 then c else Int.compare ib ia)
  in
  for slot = 0 to kv.kv_len - 1 do
    let gid = ids.(slot) and bid_c = bids.(slot) in
    if gid >= 0 && bid_c >= reserve then begin
      let s =
        x.x_ctr.(gid).(0) *. (float_of_int bid_c +. float_of_int prems.(slot))
      in
      if s > 0.0 then ignore (Essa_util.Topk.offer top (s, gid, slot))
    end
  done;
  let assignment = Array.make x.x_k None in
  let prices = Array.make x.x_k 0 in
  List.iteri
    (fun j (_, gid, slot) ->
      assignment.(j) <- Some gid;
      prices.(j) <- max reserve (bids.(slot) + if j = 0 then prems.(slot) else 0))
    (Essa_util.Topk.to_sorted_list top);
  (assignment, prices)

(* Reduced pricing view out of the scratch buffers: a stamp pass dedupes
   the top lists (no Set) and insertion-sorts the candidate ids in place
   (ascending, as before — ≤ k·(k+1) distinct ints), and the weight rows
   are refilled rather than reallocated.  The two [Array.sub] views are
   the only per-auction allocation left, and they are O(k²) pointers,
   independent of n. *)
let reduced_from_top x s ~reserve ~keyword top =
  s.stamp_token <- s.stamp_token + 1;
  let token = s.stamp_token in
  let ids = s.reduced_advs in
  let count = ref 0 in
  let rec add = function
    | [] -> ()
    | (i, _) :: rest ->
        if s.stamp.(i) <> token then begin
          s.stamp.(i) <- token;
          let p = ref !count in
          while !p > 0 && ids.(!p - 1) > i do
            ids.(!p) <- ids.(!p - 1);
            decr p
          done;
          ids.(!p) <- i;
          incr count
        end;
        add rest
  in
  Array.iter add top;
  let advertisers = Array.sub ids 0 !count in
  let prem = x.x_premiums.(keyword) in
  for r = 0 to !count - 1 do
    let i = advertisers.(r) in
    s.local_of.(i) <- r;
    let row = s.reduced_w_rows.(r) in
    let bid_c = Essa_strategy.Roi_fleet.bid x.x_fleet ~adv:i ~keyword in
    if bid_c < reserve then Array.fill row 0 x.x_k 0.0
    else begin
      let b = float_of_int bid_c in
      row.(0) <- x.x_ctr.(i).(0) *. (b +. float_of_int prem.(i));
      for j = 1 to x.x_k - 1 do
        row.(j) <- x.x_ctr.(i).(j) *. b
      done
    end
  done;
  Essa_obs.Counter.add x.x_c_reduced !count;
  s.wd_reduced <- s.wd_reduced + !count;
  (advertisers, Array.sub s.reduced_w_rows 0 !count)

(* GSP against the reduced top lists without the per-slot Hashtbl of
   [Pricing.gsp_per_click]: winners are stamped in the scratch (a fresh
   token, so it composes with [reduced_from_top]'s stamps) and the
   runner-up is the first unstamped entry of the slot's list — same
   search, same price arithmetic, same reserve floor. *)
let gsp_from_top x s ~reserve ~assignment ~top =
  s.stamp_token <- s.stamp_token + 1;
  let token = s.stamp_token in
  Array.iter
    (function None -> () | Some i -> s.stamp.(i) <- token)
    assignment;
  Array.mapi
    (fun j0 cell ->
      match cell with
      | None -> 0
      | Some winner ->
          let rec runner = function
            | [] -> 0
            | (i, weight) :: rest ->
                if s.stamp.(i) = token then runner rest
                else
                  let p = x.x_ctr.(winner).(j0) in
                  if p <= 0.0 || weight <= 0.0 then 0
                  else int_of_float (Float.ceil ((weight /. p) -. 1e-9))
          in
          max (runner top.(j0)) reserve)
    assignment

(* ------------------------------------------------------------------ *)
(* The `Rh kernel.  Everything below reads the keyword view (live slots
   only), so per-auction cost is O(live · k): on a flat store that is
   independent of the fleet size and of the keyword count.  Candidate
   order (score descending, id ascending; reduced view in ascending id)
   matches the `Rhtalu path, so where both run they assign and price
   identically. *)

let rh_winner_determination x s ~reserve kv =
  let ids = kv.kv_ids and len = kv.kv_len in
  let k = x.x_k in
  let rows = s.w_buffer in
  (* Score once: every later step reads these rows. *)
  score_rows x s ~reserve kv;
  let tk_ids = s.tk_ids and tk_scores = s.tk_scores and tk_slots = s.tk_slots in
  (* The candidates are the union of the slots' top-(k+1) lists, marked
     from whichever side of the live set is smaller.  With m live members
     beyond k+1, each list is the complement of the slot's bottom m in
     the reversed order, so a member drops out only by losing on every
     slot: the stamps chain through the slots' loser sets (m <= 0 marks
     nobody).  Otherwise the top lists themselves are stamped. *)
  let count = k + 1 in
  let m = kv.kv_live - count in
  let complement = m < count in
  let stamp = s.stamp in
  s.stamp_token <- s.stamp_token + 1;
  if complement then begin
    let j = ref 0 and losing = ref m in
    while !j < k && !losing > 0 do
      let prev = s.stamp_token in
      s.stamp_token <- prev + 1;
      let kept =
        Essa_matching.Reduction.select ~rows ~ids ~len ~j:!j ~count:m
          ~worst:true ~tk_ids ~tk_scores ~tk_slots
      in
      losing := 0;
      for i = 0 to kept - 1 do
        let slot = tk_slots.(i) in
        if !j = 0 || stamp.(slot) = prev then begin
          stamp.(slot) <- s.stamp_token;
          incr losing
        end
      done;
      incr j
    done
  end
  else
    for j = 0 to k - 1 do
      let kept =
        Essa_matching.Reduction.select ~rows ~ids ~len ~j ~count ~worst:false
          ~tk_ids ~tk_scores ~tk_slots
      in
      for i = 0 to kept - 1 do
        stamp.(tk_slots.(i)) <- s.stamp_token
      done
    done;
  (* Reduced view in ascending id order, exactly like [reduced_from_top]:
     the candidates' slots are insertion-sorted by id in place (at most
     k·(k+1) of them; live ids are distinct), and their rows are the
     score rows themselves. *)
  let token = s.stamp_token and slots = s.reduced_advs and ncand = ref 0 in
  for slot = 0 to len - 1 do
    let gid = ids.(slot) in
    if gid >= 0 && (stamp.(slot) = token) <> complement then begin
      let p = ref !ncand in
      while !p > 0 && ids.(slots.(!p - 1)) > gid do
        slots.(!p) <- slots.(!p - 1);
        decr p
      done;
      slots.(!p) <- slot;
      incr ncand
    end
  done;
  let ncand = !ncand in
  Essa_obs.Counter.add x.x_c_reduced ncand;
  s.wd_reduced <- s.wd_reduced + ncand;
  let w = Array.make ncand [||] in
  for r = 0 to ncand - 1 do
    w.(r) <- rows.(slots.(r));
    s.local_of.(slots.(r)) <- r
  done;
  (* [solve] answers an empty candidate set with an empty assignment. *)
  let assignment = Essa_matching.Hungarian.solve ~w in
  let winners = Array.make (Array.length assignment) (-1) in
  for j = 0 to Array.length assignment - 1 do
    match assignment.(j) with
    | None -> ()
    | Some local ->
        winners.(j) <- slots.(local);
        assignment.(j) <- Some ids.(slots.(local))
  done;
  { e_assignment = assignment; e_view = Scored { kv; winners; w } }

(* GSP runner-up by scan of the candidate rows: the best non-winner on
   the slot's column.  Every slot's top-(k+1) list lies among the
   candidates and holds the best live non-winner on its column (a list of
   k+1 entries holds at least one non-winner, and a shorter list holds
   every live member), so the candidates' best non-winner is the live
   one: the list search's price at the same arithmetic and reserve
   floor, in O(k · candidates). *)
let gsp_from_candidates x s ~reserve ~assignment ~winners ~w =
  s.stamp_token <- s.stamp_token + 1;
  let token = s.stamp_token in
  for j = 0 to Array.length winners - 1 do
    if winners.(j) >= 0 then s.stamp.(winners.(j)) <- token
  done;
  let slots = s.reduced_advs in
  let prices = Array.make (Array.length assignment) 0 in
  for j0 = 0 to Array.length assignment - 1 do
    match assignment.(j0) with
    | None -> ()
    | Some winner ->
        (* No non-winner leaves [neg_infinity]: no runner-up, price 0. *)
        let weight = ref neg_infinity in
        for r = 0 to Array.length w - 1 do
          if s.stamp.(slots.(r)) <> token then begin
            let sc = w.(r).(j0) in
            if sc > !weight then weight := sc
          end
        done;
        let p = x.x_ctr.(winner).(j0) in
        let runner =
          if p <= 0.0 || !weight <= 0.0 then 0
          else int_of_float (Float.ceil ((!weight /. p) -. 1e-9))
        in
        prices.(j0) <- max runner reserve
  done;
  prices
