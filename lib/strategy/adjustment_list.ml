type t = {
  (* Members in canonical order — stored bid descending, then id
     ascending — as two parallel arrays whose first [len] entries are
     live.  Stored bids are pre-adjustment, so [bulk_adjust] leaves both
     arrays untouched: the list is its own sorted view, read in place by
     the threshold algorithm. *)
  mutable ids : int array;
  mutable stored : int array;
  mutable len : int;
  (* by_id.(id) mirrors the member's stored bid; [min_int] marks an
     absent id (so no stored bid may be [min_int]).  Serves membership and
     random access in one array read, gives removal the key to
     binary-search for, and tells [close_holes] which entries are still
     live. *)
  mutable by_id : int array;
  mutable adjustment : int;
}

let absent = min_int

let create () =
  { ids = [||]; stored = [||]; len = 0; by_id = [||]; adjustment = 0 }

let size t = t.len
let adjustment t = t.adjustment
let bulk_adjust t delta = t.adjustment <- t.adjustment + delta

let stored_raw t id =
  if id >= 0 && id < Array.length t.by_id then t.by_id.(id) else absent

let mem t id = stored_raw t id <> absent

let stored_of t id =
  let s = stored_raw t id in
  if s = absent then None else Some s

let effective_of t id =
  let s = stored_raw t id in
  if s = absent then None else Some (s + t.adjustment)

(* Canonical order: does (s1, id1) come before (s2, id2)? *)
let[@inline] precedes s1 id1 s2 id2 = s1 > s2 || (s1 = s2 && id1 < id2)

(* Number of live entries that precede (s, id) in canonical order: the
   position of a present pair. *)
let position t ~s ~id =
  let ids = t.ids and stored = t.stored in
  let lo = ref 0 and hi = ref t.len in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if precedes stored.(mid) ids.(mid) s id then lo := mid + 1 else hi := mid
  done;
  !lo

(* Removal and insertion move each entry behind the first changed
   position at most once ([close_holes], [merge]), in int-typed loops
   rather than [Array.blit]: a blit is polymorphic and pays a write
   barrier per element on a major-heap array, while these stores are
   plain. *)

(* Drop the entries at or after [first] whose ids are no longer
   mirrored, closing the holes. *)
let close_holes t ~first =
  let ids = t.ids and stored = t.stored and by_id = t.by_id in
  let w = ref first in
  for r = first to t.len - 1 do
    let id = Array.unsafe_get ids r in
    if Array.unsafe_get by_id id <> absent then begin
      Array.unsafe_set ids !w id;
      Array.unsafe_set stored !w (Array.unsafe_get stored r);
      incr w
    end
  done;
  t.len <- !w

(* Unmirror a member; return its position. *)
let unmark t ~id ~s =
  t.by_id.(id) <- absent;
  position t ~s ~id

let remove t ~id =
  let s = stored_raw t id in
  if s <> absent then close_holes t ~first:(unmark t ~id ~s)

let remove_many t removed =
  let first =
    List.fold_left
      (fun first id ->
        let s = stored_raw t id in
        if s = absent then first else min first (unmark t ~id ~s))
      t.len removed
  in
  close_holes t ~first

let resized (a : int array) ~cap ~fill =
  let b = Array.make cap fill in
  for i = 0 to Array.length a - 1 do
    b.(i) <- a.(i)
  done;
  b

(* Room for [len] members and for ids up to [max_id], doubling. *)
let grow t ~len ~max_id =
  if len > Array.length t.ids then begin
    let cap = max 16 (max len (2 * Array.length t.ids)) in
    t.ids <- resized t.ids ~cap ~fill:0;
    t.stored <- resized t.stored ~cap ~fill:0
  end;
  let n = Array.length t.by_id in
  if max_id >= n then
    t.by_id <- resized t.by_id ~cap:(max 16 (max (max_id + 1) (2 * n))) ~fill:absent

(* Merge the [m] entries of [new_s]/[new_ids] — already mirrored, sorted
   canonically, room grown — from the back: each old entry that follows
   a new one moves up by the number of new entries still to place. *)
let merge t new_s new_ids m =
  let ids = t.ids and stored = t.stored in
  let i = ref (t.len - 1) and w = ref (t.len + m - 1) in
  for j = m - 1 downto 0 do
    let s = new_s.(j) and id = new_ids.(j) in
    while
      !i >= 0
      && precedes s id (Array.unsafe_get stored !i) (Array.unsafe_get ids !i)
    do
      Array.unsafe_set ids !w (Array.unsafe_get ids !i);
      Array.unsafe_set stored !w (Array.unsafe_get stored !i);
      decr i;
      decr w
    done;
    ids.(!w) <- id;
    stored.(!w) <- s;
    decr w
  done;
  t.len <- t.len + m

let negative_id () = invalid_arg "Adjustment_list: negative id"

let insert t ~id ~effective =
  if id < 0 then negative_id ();
  remove t ~id;
  grow t ~len:(t.len + 1) ~max_id:id;
  let s = effective - t.adjustment in
  t.by_id.(id) <- s;
  merge t [| s |] [| id |] 1

let insert_many t entries =
  let fresh =
    Array.of_list
      (List.map
         (fun (id, e) ->
           if id < 0 then negative_id ();
           (e - t.adjustment, id))
         entries)
  in
  let m = Array.length fresh in
  grow t ~len:(t.len + m)
    ~max_id:(Array.fold_left (fun acc (_, id) -> max acc id) (-1) fresh);
  (* Mirror the new members, undoing the marks if one is already there. *)
  Array.iteri
    (fun k (s, id) ->
      if t.by_id.(id) <> absent then begin
        for k' = 0 to k - 1 do
          t.by_id.(snd fresh.(k')) <- absent
        done;
        invalid_arg "Adjustment_list.insert_many: id present or repeated"
      end;
      t.by_id.(id) <- s)
    fresh;
  Array.sort
    (fun (s1, id1) (s2, id2) ->
      if s1 <> s2 then Int.compare s2 s1 else Int.compare id1 id2)
    fresh;
  merge t (Array.map fst fresh) (Array.map snd fresh) m

let to_seq_desc t =
  (* Copy the live prefix and capture the adjustment now: the sequence is
     consumed lazily and must reflect the list as of this call. *)
  let ids = Array.sub t.ids 0 t.len and stored = Array.sub t.stored 0 t.len in
  let adjustment = t.adjustment in
  Seq.init t.len (fun i -> (ids.(i), stored.(i) + adjustment))

let sorted_arrays t = (t.ids, t.stored, t.len)
