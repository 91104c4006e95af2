(* Two layouts behind one keyword-partitioned seam:

   - [Dense]: the original layout — a shared [Roi_state.t] per advertiser
     plus per-keyword spend-snapshot buffers of length n.  Fine for the
     paper's toy universes (10 keywords, every advertiser on every
     keyword), and the baseline the flat layout is property-tested
     against.
   - [Flat]: the scalable layout — per keyword, only the advertisers that
     actually bid on it, held in preallocated int-indexed SoA arrays
     (dense local slots; a free-list recycles slots across bidder
     arrival/departure).  Snapshots are participant-local (length =
     partition capacity), so memory and per-auction work scale with
     Σ participants, not keywords × advertisers.  The only per-advertiser
     globals are the atomic spend cell, the budget and the target rate. *)

type part = {
  (* Slot-indexed SoA state; members.(s) = -1 marks a free slot.  Slots
     0..p_len-1 are allocated-or-freed; the free-list stack recycles
     them before p_len grows, and arrays double when both are spent. *)
  mutable members : int array;
  mutable bids : int array;
  mutable maxbids : int array;
  mutable values : int array;
  mutable premiums : int array;
  mutable gained : int array;
  mutable spent : int array;
  (* This keyword has observed the advertiser's budget exhaustion and
     zeroed its local bid (deferred, keyword-local retirement). *)
  mutable bretired : bool array;
  mutable p_len : int;
  mutable free : int array;  (* free-list stack of local slots *)
  mutable free_len : int;
  mutable live : int;        (* members with id >= 0 *)
  mutable snap : int array;  (* spend-snapshot buffer, length = capacity *)
  (* The snapshot buffer still holds a faithful read of the live spend
     cells, taken when the global charge clock read [p_snap_charge]; a
     matching clock means no charge landed anywhere since, so the O(cap)
     refill can be skipped.  Overrides and membership changes clear it. *)
  mutable p_snap_valid : bool;
  mutable p_snap_charge : int;
  slot_of : (int, int) Hashtbl.t;  (* global advertiser id -> local slot *)
}

type flat = {
  parts : part array;
  f_spent : int Atomic.t array;  (* per advertiser, the cross-keyword cell *)
  f_budget : int array;          (* per advertiser; -1 = unbudgeted *)
  f_target : float array;        (* per advertiser *)
  f_n : int;
  (* Deterministic churn schedule, keyed on (keyword, keyword-local
     time); installed by the workload, invoked by [flat_begin_auction]
     before the snapshot so live runs and replays see identical
     membership at every keyword-local time. *)
  mutable on_tick : (keyword:int -> time:int -> unit) option;
  (* Per-keyword RNG streams owned by the on_tick hook (lazily created
     through [flat_tick_rng]).  Held in the store rather than trapped in
     the hook's closure so a durability snapshot can capture their
     positions — a restored store resumes the exact churn schedule. *)
  tick_rngs : Essa_util.Rng.t option array;
}

type layout =
  | Dense of { states : Roi_state.t array; snapshots : int array array }
  | Flat of flat

type t = {
  clocks : int array;
  (* Per-keyword dirty epochs: a monotone counter bumped by every mutation
     that can change the keyword's next evaluation inputs — bid moves,
     retirement transitions, enroll/retire churn, and that keyword's own
     clicked charges.  Equal epochs bracket a window in which the
     keyword's evaluation inputs were bit-identical; the engine's
     evaluation cache keys on it.  Cross-keyword spend drift is *not*
     counted here: it can only reach an auction through the begin-pass
     classify step, whose bid moves bump the epoch themselves. *)
  epochs : int array;
  (* Global charge clock: bumped (after the spend write) by every charge.
     Used only to skip refilling a spend snapshot that nothing could have
     moved — never as a cache key. *)
  charge_clock : int Atomic.t;
  layout : layout;
}

let create states ~num_keywords =
  if Array.length states = 0 then invalid_arg "State_store.create: no advertisers";
  if num_keywords < 1 then invalid_arg "State_store.create: num_keywords < 1";
  let n = Array.length states in
  {
    clocks = Array.make num_keywords 0;
    epochs = Array.make num_keywords 0;
    charge_clock = Atomic.make 0;
    layout =
      Dense
        { states; snapshots = Array.init num_keywords (fun _ -> Array.make n 0) };
  }

let initial_capacity = 8

let fresh_part () =
  {
    members = Array.make initial_capacity (-1);
    bids = Array.make initial_capacity 0;
    maxbids = Array.make initial_capacity 0;
    values = Array.make initial_capacity 0;
    premiums = Array.make initial_capacity 0;
    gained = Array.make initial_capacity 0;
    spent = Array.make initial_capacity 0;
    bretired = Array.make initial_capacity false;
    p_len = 0;
    free = Array.make 8 0;
    free_len = 0;
    live = 0;
    snap = Array.make initial_capacity 0;
    p_snap_valid = false;
    p_snap_charge = 0;
    slot_of = Hashtbl.create 16;
  }

let create_flat ~num_keywords ~n ~budgets ~targets () =
  if n < 1 then invalid_arg "State_store.create_flat: n < 1";
  if num_keywords < 1 then invalid_arg "State_store.create_flat: num_keywords < 1";
  if Array.length budgets <> n || Array.length targets <> n then
    invalid_arg "State_store.create_flat: budgets/targets length <> n";
  Array.iter
    (fun r ->
      if not (r > 0.0) then
        invalid_arg "State_store.create_flat: target rate must be positive")
    targets;
  {
    clocks = Array.make num_keywords 0;
    epochs = Array.make num_keywords 0;
    charge_clock = Atomic.make 0;
    layout =
      Flat
        {
          parts = Array.init num_keywords (fun _ -> fresh_part ());
          f_spent = Array.init n (fun _ -> Atomic.make 0);
          f_budget = Array.copy budgets;
          f_target = Array.copy targets;
          f_n = n;
          on_tick = None;
          tick_rngs = Array.make num_keywords None;
        };
  }

let num_keywords t = Array.length t.clocks

let is_flat t = match t.layout with Flat _ -> true | Dense _ -> false

let flat_of t name =
  match t.layout with
  | Flat f -> f
  | Dense _ -> invalid_arg ("State_store." ^ name ^ ": dense store")

let flat_n t = (flat_of t "flat_n").f_n

let check_kw t keyword =
  if keyword < 0 || keyword >= num_keywords t then
    invalid_arg (Printf.sprintf "State_store: keyword %d out of range" keyword)

let time t ~keyword =
  check_kw t keyword;
  t.clocks.(keyword)

let epoch_of t ~keyword =
  check_kw t keyword;
  t.epochs.(keyword)

let bump_epoch t ~keyword =
  check_kw t keyword;
  t.epochs.(keyword) <- t.epochs.(keyword) + 1

let tick t ~keyword =
  check_kw t keyword;
  t.clocks.(keyword) <- t.clocks.(keyword) + 1;
  t.clocks.(keyword)

let spend t ~adv =
  match t.layout with
  | Dense d -> Roi_state.amt_spent d.states.(adv)
  | Flat f -> Atomic.get f.f_spent.(adv)

let charge t ~adv ~price =
  let total =
    match t.layout with
    | Dense d -> Roi_state.charge d.states.(adv) ~price
    | Flat f ->
        if price < 0 then invalid_arg "State_store.charge: negative price";
        Atomic.fetch_and_add f.f_spent.(adv) price + price
  in
  (* Bump *after* the spend write: a snapshot filler that read the old
     clock before its fill will see the mismatch and refill, so a charge
     racing a fill can never be skipped past. *)
  Atomic.incr t.charge_clock;
  total

(* ------------------------------------------------------------------ *)
(* Flat churn: free-list slot allocation.  Single-owner per keyword
   (the owning lane, or the workload's on_tick hook running on it). *)

let grow_int arr len fill =
  let a = Array.make (2 * len) fill in
  Array.blit arr 0 a 0 len;
  a

let grow_part p =
  let cap = Array.length p.members in
  p.members <- grow_int p.members cap (-1);
  p.bids <- grow_int p.bids cap 0;
  p.maxbids <- grow_int p.maxbids cap 0;
  p.values <- grow_int p.values cap 0;
  p.premiums <- grow_int p.premiums cap 0;
  p.gained <- grow_int p.gained cap 0;
  p.spent <- grow_int p.spent cap 0;
  p.snap <- grow_int p.snap cap 0;
  let b = Array.make (2 * cap) false in
  Array.blit p.bretired 0 b 0 cap;
  p.bretired <- b

let flat_enroll t ~keyword ~adv ~value ~maxbid ~bid ~premium =
  check_kw t keyword;
  let f = flat_of t "flat_enroll" in
  if adv < 0 || adv >= f.f_n then
    invalid_arg (Printf.sprintf "State_store.flat_enroll: advertiser %d" adv);
  if value < 0 || maxbid < 0 || premium < 0 then
    invalid_arg "State_store.flat_enroll: negative parameter";
  if bid < 0 || bid > maxbid then
    invalid_arg "State_store.flat_enroll: bid outside [0, maxbid]";
  let p = f.parts.(keyword) in
  if Hashtbl.mem p.slot_of adv then
    invalid_arg
      (Printf.sprintf "State_store.flat_enroll: advertiser %d already enrolled"
         adv);
  let slot =
    if p.free_len > 0 then begin
      p.free_len <- p.free_len - 1;
      p.free.(p.free_len)
    end
    else begin
      if p.p_len >= Array.length p.members then grow_part p;
      let s = p.p_len in
      p.p_len <- p.p_len + 1;
      s
    end
  in
  p.members.(slot) <- adv;
  p.values.(slot) <- value;
  p.maxbids.(slot) <- maxbid;
  p.bids.(slot) <- bid;
  p.premiums.(slot) <- premium;
  p.gained.(slot) <- 0;
  p.spent.(slot) <- 0;
  p.bretired.(slot) <- false;
  p.live <- p.live + 1;
  p.p_snap_valid <- false;
  t.epochs.(keyword) <- t.epochs.(keyword) + 1;
  Hashtbl.replace p.slot_of adv slot

let flat_retire t ~keyword ~adv =
  check_kw t keyword;
  let f = flat_of t "flat_retire" in
  let p = f.parts.(keyword) in
  match Hashtbl.find_opt p.slot_of adv with
  | None ->
      invalid_arg
        (Printf.sprintf "State_store.flat_retire: advertiser %d not enrolled" adv)
  | Some slot ->
      Hashtbl.remove p.slot_of adv;
      p.members.(slot) <- -1;
      p.bids.(slot) <- 0;
      p.maxbids.(slot) <- 0;
      p.values.(slot) <- 0;
      p.premiums.(slot) <- 0;
      p.gained.(slot) <- 0;
      p.spent.(slot) <- 0;
      p.bretired.(slot) <- false;
      p.live <- p.live - 1;
      p.p_snap_valid <- false;
      t.epochs.(keyword) <- t.epochs.(keyword) + 1;
      if p.free_len >= Array.length p.free then
        p.free <- grow_int p.free p.free_len 0;
      p.free.(p.free_len) <- slot;
      p.free_len <- p.free_len + 1

let flat_slot t ~keyword ~adv =
  check_kw t keyword;
  let f = flat_of t "flat_slot" in
  Hashtbl.find_opt f.parts.(keyword).slot_of adv

let flat_member t ~keyword ~adv = flat_slot t ~keyword ~adv <> None

let flat_bid t ~keyword ~adv =
  let f = flat_of t "flat_bid" in
  match flat_slot t ~keyword ~adv with
  | None -> 0
  | Some slot -> f.parts.(keyword).bids.(slot)

let flat_premium t ~keyword ~adv =
  let f = flat_of t "flat_premium" in
  match flat_slot t ~keyword ~adv with
  | None -> 0
  | Some slot -> f.parts.(keyword).premiums.(slot)

let flat_budget t ~adv =
  let f = flat_of t "flat_budget" in
  let b = f.f_budget.(adv) in
  if b < 0 then None else Some b

let flat_target t ~adv = (flat_of t "flat_target").f_target.(adv)

let set_on_tick t hook = (flat_of t "set_on_tick").on_tick <- hook

let flat_tick_rng t ~keyword ~init =
  check_kw t keyword;
  let f = flat_of t "flat_tick_rng" in
  match f.tick_rngs.(keyword) with
  | Some rng -> rng
  | None ->
      let rng = init () in
      f.tick_rngs.(keyword) <- Some rng;
      rng

type flat_view = {
  fv_members : int array;
  fv_bids : int array;
  fv_premiums : int array;
  fv_values : int array;
  fv_len : int;
  fv_live : int;
}

let flat_view t ~keyword =
  check_kw t keyword;
  let f = flat_of t "flat_view" in
  let p = f.parts.(keyword) in
  {
    fv_members = p.members;
    fv_bids = p.bids;
    fv_premiums = p.premiums;
    fv_values = p.values;
    fv_len = p.p_len;
    fv_live = p.live;
  }

type flat_stats = { fs_capacity : int; fs_len : int; fs_live : int; fs_free : int }

let flat_stats t ~keyword =
  check_kw t keyword;
  let f = flat_of t "flat_stats" in
  let p = f.parts.(keyword) in
  {
    fs_capacity = Array.length p.members;
    fs_len = p.p_len;
    fs_live = p.live;
    fs_free = p.free_len;
  }

let flat_capacity t ~keyword =
  check_kw t keyword;
  Array.length (flat_of t "flat_capacity").parts.(keyword).members

(* ------------------------------------------------------------------ *)
(* Snapshots *)

let snapshot t ~keyword ?override () =
  check_kw t keyword;
  match t.layout with
  | Dense d ->
      let buf = d.snapshots.(keyword) in
      (match override with
      | Some s ->
          if Array.length s <> Array.length buf then
            invalid_arg "State_store.snapshot: override length mismatch";
          Array.blit s 0 buf 0 (Array.length buf)
      | None ->
          Array.iteri (fun adv st -> buf.(adv) <- Roi_state.amt_spent st) d.states);
      buf
  | Flat f ->
      let p = f.parts.(keyword) in
      let buf = p.snap in
      (match override with
      | Some s ->
          if Array.length s <> Array.length buf then
            invalid_arg "State_store.snapshot: override length mismatch";
          Array.blit s 0 buf 0 (Array.length buf);
          p.p_snap_valid <- false
      | None ->
          (* Read the charge clock *before* the fill: a charge landing
             mid-fill bumps the clock after its write, so the stored value
             can only under-claim and the next snapshot refills. *)
          let clock = Atomic.get t.charge_clock in
          if not (p.p_snap_valid && p.p_snap_charge = clock) then begin
            for slot = 0 to Array.length buf - 1 do
              let id = p.members.(slot) in
              buf.(slot) <- (if id >= 0 then Atomic.get f.f_spent.(id) else 0)
            done;
            p.p_snap_valid <- true;
            p.p_snap_charge <- clock
          end);
      buf

(* ------------------------------------------------------------------ *)
(* Flat auction driver: the begin_auction_p / record_win_p semantics of
   the dense naive_p fleet, expressed over the slot-indexed arrays.  Same
   decision order per advertiser (retire-on-exhaustion first, then the
   Roi_state.classify predicate with identical float expressions), same
   snapshot discipline — property-tested bit-identical to the dense
   store across churn sequences. *)

let flat_begin_auction t ~keyword ?override () =
  check_kw t keyword;
  let f = flat_of t "flat_begin_auction" in
  let p = f.parts.(keyword) in
  let time = tick t ~keyword in
  (* Scheduled churn lands before the snapshot, in both live runs and
     replays: membership at a given keyword-local time is deterministic. *)
  (match f.on_tick with None -> () | Some hook -> hook ~keyword ~time);
  let snap = snapshot t ~keyword ?override () in
  let budgets = f.f_budget and targets = f.f_target in
  let changed = ref false in
  for slot = 0 to p.p_len - 1 do
    let id = p.members.(slot) in
    if id >= 0 then begin
      let amt = snap.(slot) in
      let b = budgets.(id) in
      if b >= 0 && amt >= b then begin
        if not p.bretired.(slot) then begin
          p.bretired.(slot) <- true;
          if p.bids.(slot) <> 0 then changed := true;
          p.bids.(slot) <- 0
        end
      end
      else begin
        (* Roi_state.classify, inlined with the same float expressions. *)
        let bid = p.bids.(slot) in
        let spent = float_of_int amt
        and budgeted = targets.(id) *. float_of_int time in
        if spent < budgeted && bid < p.maxbids.(slot) then begin
          p.bids.(slot) <- bid + 1;
          changed := true
        end
        else if spent > budgeted && bid > 0 then begin
          p.bids.(slot) <- bid - 1;
          changed := true
        end
      end
    end
  done;
  if !changed then t.epochs.(keyword) <- t.epochs.(keyword) + 1;
  (time, snap)

(* ------------------------------------------------------------------ *)
(* Durability snapshots: a binary image of the whole store, precise
   enough that an engine rebuilt over the decoded state continues the
   exact auction stream.  Two details matter for bit-identity:

   - Partition {e capacity} is observable (the spend-snapshot witness is
     the full slot buffer, free slots included), so it is recorded
     explicitly rather than re-derived from the growth schedule.
   - The free-list is recorded in stack order: slot reuse under churn
     must assign the same local slots after a restore. *)

module B = Essa_util.Bincode

let encode ?bid t buf =
  B.write_int_array buf t.clocks;
  B.write_int_array buf t.epochs;
  B.write_int buf (Atomic.get t.charge_clock);
  match t.layout with
  | Dense d ->
      B.write_u8 buf 0;
      let states = d.states in
      let n = Array.length states in
      let nk = num_keywords t in
      B.write_int buf n;
      B.write_int buf nk;
      (* [bid] lets the caller substitute the advertiser's *effective*
         bid (e.g. the logical fleet's adjustment-list bid — the stored
         Roi_state cell is stale there); a fleet rebuilt from the
         decoded states then starts from the observable bid vector. *)
      let bid_of =
        match bid with
        | Some f -> f
        | None -> fun ~adv ~keyword -> Roi_state.bid states.(adv) ~keyword
      in
      Array.iteri
        (fun adv st ->
          let per f = Array.init nk (fun keyword -> f ~keyword) in
          B.write_int_array buf (per (fun ~keyword -> Roi_state.value st ~keyword));
          B.write_int_array buf (per (fun ~keyword -> Roi_state.maxbid st ~keyword));
          B.write_int_array buf (per (fun ~keyword -> bid_of ~adv ~keyword));
          B.write_int_array buf (per (fun ~keyword -> Roi_state.gained st ~keyword));
          B.write_int_array buf (per (fun ~keyword -> Roi_state.spent st ~keyword));
          B.write_int_array buf (per (fun ~keyword -> Roi_state.premium st ~keyword));
          B.write_float buf (Roi_state.target_rate st);
          B.write_option buf B.write_int (Roi_state.budget st);
          B.write_int buf (Roi_state.amt_spent st))
        states
  | Flat f ->
      B.write_u8 buf 1;
      B.write_int buf f.f_n;
      B.write_int_array buf f.f_budget;
      B.write_float_array buf f.f_target;
      B.write_array buf (fun buf c -> B.write_int buf (Atomic.get c)) f.f_spent;
      Array.iter
        (fun p ->
          B.write_int buf (Array.length p.members);
          B.write_int buf p.p_len;
          let upto a = B.write_int_array_prefix buf a ~len:p.p_len in
          upto p.members;
          upto p.bids;
          upto p.maxbids;
          upto p.values;
          upto p.premiums;
          upto p.gained;
          upto p.spent;
          B.write_bool_array_prefix buf p.bretired ~len:p.p_len;
          B.write_int_array_prefix buf p.free ~len:p.free_len;
          B.write_int buf p.live;
          (* A reserved byte, kept so that existing images still decode. *)
          B.write_bool buf false)
        f.parts;
      B.write_array buf
        (fun buf o -> B.write_option buf B.write_i64 o)
        (Array.map (Option.map Essa_util.Rng.state) f.tick_rngs)

type snapshot = {
  snap_clocks : int array;
  snap_epochs : int array;
  snap_charge : int;
  snap_layout : snap_layout;
}

and snap_layout = Snap_dense of Roi_state.t array | Snap_flat of t

let check_decoded cond = if not cond then raise B.Truncated

let decode_part r ~n =
  let cap = B.read_int r in
  let p_len = B.read_int r in
  check_decoded (cap >= initial_capacity && p_len >= 0 && p_len <= cap);
  let members_d = B.read_int_array r in
  let bids_d = B.read_int_array r in
  let maxbids_d = B.read_int_array r in
  let values_d = B.read_int_array r in
  let premiums_d = B.read_int_array r in
  let gained_d = B.read_int_array r in
  let spent_d = B.read_int_array r in
  let bretired_d = B.read_bool_array r in
  let free_d = B.read_int_array r in
  let live = B.read_int r in
  ignore (B.read_bool r : bool);
  check_decoded
    (Array.length members_d = p_len
    && Array.length bids_d = p_len
    && Array.length maxbids_d = p_len
    && Array.length values_d = p_len
    && Array.length premiums_d = p_len
    && Array.length gained_d = p_len
    && Array.length spent_d = p_len
    && Array.length bretired_d = p_len
    && Array.length free_d <= p_len
    && live >= 0 && live <= p_len);
  Array.iter (fun id -> check_decoded (id >= -1 && id < n)) members_d;
  Array.iter (fun s -> check_decoded (s >= 0 && s < p_len)) free_d;
  let into fill d =
    let a = Array.make cap fill in
    Array.blit d 0 a 0 p_len;
    a
  in
  let p =
    {
      members = into (-1) members_d;
      bids = into 0 bids_d;
      maxbids = into 0 maxbids_d;
      values = into 0 values_d;
      premiums = into 0 premiums_d;
      gained = into 0 gained_d;
      spent = into 0 spent_d;
      bretired =
        (let a = Array.make cap false in
         Array.blit bretired_d 0 a 0 p_len;
         a);
      p_len;
      free =
        (let a = Array.make (max initial_capacity (Array.length free_d)) 0 in
         Array.blit free_d 0 a 0 (Array.length free_d);
         a);
      free_len = Array.length free_d;
      live;
      snap = Array.make cap 0;
      p_snap_valid = false;
      p_snap_charge = 0;
      slot_of = Hashtbl.create 16;
    }
  in
  Array.iteri
    (fun slot id -> if id >= 0 then Hashtbl.replace p.slot_of id slot)
    members_d;
  check_decoded (Hashtbl.length p.slot_of = live);
  p

let decode r =
  let snap_clocks = B.read_int_array r in
  let snap_epochs = B.read_int_array r in
  let snap_charge = B.read_int r in
  let nk = Array.length snap_clocks in
  check_decoded (nk >= 1 && Array.length snap_epochs = nk);
  let snap_layout =
    match B.read_u8 r with
    | 0 ->
        let n = B.read_int r in
        let nk' = B.read_int r in
        check_decoded (n >= 1 && nk' = nk);
        Snap_dense
          (Array.init n (fun _ ->
               let values = B.read_int_array r in
               let maxbids = B.read_int_array r in
               let bids = B.read_int_array r in
               let gained_by = B.read_int_array r in
               let spent_by = B.read_int_array r in
               let premiums = B.read_int_array r in
               let target_rate = B.read_float r in
               let budget = B.read_option r B.read_int in
               let amt_spent = B.read_int r in
               check_decoded (Array.length values = nk);
               try
                 Roi_state.restore ~values ~maxbids ~bids ~gained_by ~spent_by
                   ~premiums ~target_rate ~budget ~amt_spent
               with Invalid_argument _ -> raise B.Truncated))
    | 1 ->
        let f_n = B.read_int r in
        let f_budget = B.read_int_array r in
        let f_target = B.read_float_array r in
        let spends = B.read_int_array r in
        check_decoded
          (f_n >= 1
          && Array.length f_budget = f_n
          && Array.length f_target = f_n
          && Array.length spends = f_n);
        Array.iter (fun t -> check_decoded (t > 0.0)) f_target;
        let parts = Array.init nk (fun _ -> decode_part r ~n:f_n) in
        let rng_states = B.read_array r (fun r -> B.read_option r B.read_i64) in
        check_decoded (Array.length rng_states = nk);
        let store =
          {
            clocks = Array.copy snap_clocks;
            epochs = Array.copy snap_epochs;
            charge_clock = Atomic.make snap_charge;
            layout =
              Flat
                {
                  parts;
                  f_spent = Array.map (fun s -> Atomic.make s) spends;
                  f_budget;
                  f_target;
                  f_n;
                  on_tick = None;
                  tick_rngs =
                    Array.map (Option.map Essa_util.Rng.of_state) rng_states;
                };
          }
        in
        Snap_flat store
    | _ -> raise B.Truncated
  in
  { snap_clocks; snap_epochs; snap_charge; snap_layout }

let snapshot_is_flat snap =
  match snap.snap_layout with Snap_flat _ -> true | Snap_dense _ -> false

let snapshot_num_keywords snap = Array.length snap.snap_clocks

let dense_states snap =
  match snap.snap_layout with
  | Snap_dense states -> states
  | Snap_flat _ -> invalid_arg "State_store.dense_states: flat snapshot"

let of_snapshot_flat snap =
  match snap.snap_layout with
  | Snap_flat store -> store
  | Snap_dense _ -> invalid_arg "State_store.of_snapshot_flat: dense snapshot"

let apply_meta snap store =
  let nk = num_keywords store in
  if Array.length snap.snap_clocks <> nk then
    invalid_arg "State_store.apply_meta: keyword-count mismatch";
  Array.blit snap.snap_clocks 0 store.clocks 0 nk;
  Array.blit snap.snap_epochs 0 store.epochs 0 nk;
  Atomic.set store.charge_clock snap.snap_charge

let flat_record_win t ~adv ~keyword ~price =
  check_kw t keyword;
  let f = flat_of t "flat_record_win" in
  ignore (charge t ~adv ~price);
  (* No epoch bump here: a clicked charge reaches evaluation only through
     the next begin pass, whose classify step bumps the epoch iff a bid
     actually moves.  The keyword-local spent/gained tallies below are
     reporting-only — [flat_begin_auction] never reads them. *)
  let p = f.parts.(keyword) in
  match Hashtbl.find_opt p.slot_of adv with
  | None -> ()  (* departed between execution and notification: spend only *)
  | Some slot ->
      p.spent.(slot) <- p.spent.(slot) + price;
      p.gained.(slot) <- p.gained.(slot) + p.values.(slot)
