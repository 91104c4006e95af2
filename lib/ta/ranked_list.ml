module Key = struct
  type t = float * int  (* score, id *)

  (* Descending by score, ascending by id — a strict total order, so the
     map never conflates distinct objects with equal scores. *)
  let compare (sa, ia) (sb, ib) =
    let c = Float.compare sb sa in
    if c <> 0 then c else Int.compare ia ib
end

module M = Map.Make (Key)

type t = { mutable tree : unit M.t; index : (int, float) Hashtbl.t }

let create () = { tree = M.empty; index = Hashtbl.create 64 }

let size t = Hashtbl.length t.index

let remove t ~id =
  match Hashtbl.find_opt t.index id with
  | None -> ()
  | Some score ->
      t.tree <- M.remove (score, id) t.tree;
      Hashtbl.remove t.index id

let insert t ~id ~value =
  remove t ~id;
  t.tree <- M.add (value, id) () t.tree;
  Hashtbl.replace t.index id value

let of_array entries =
  let t = create () in
  Array.iter (fun (id, value) -> insert t ~id ~value) entries;
  t

let value_of t id = Hashtbl.find_opt t.index id
let mem t id = Hashtbl.mem t.index id

let max_entry t =
  match M.min_binding_opt t.tree with
  | None -> None
  | Some ((score, id), ()) -> Some (id, score)

let to_seq_desc t = Seq.map (fun ((score, id), ()) -> (id, score)) (M.to_seq t.tree)

let to_list_desc t = List.of_seq (to_seq_desc t)
