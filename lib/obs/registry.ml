type metric =
  | Counter of Counter.t
  | Gauge of Gauge.t
  | Histogram of Histogram.t

type entry = { name : string; help : string; metric : metric }

type t = {
  lock : Mutex.t;
  tbl : (string, entry) Hashtbl.t;
  mutable rev_entries : entry list;  (* newest first; reversed on read *)
}

let create () = { lock = Mutex.create (); tbl = Hashtbl.create 32; rev_entries = [] }

let valid_name name =
  String.length name > 0
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | ':' -> true
         | _ -> false)
       name

let kind_label = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Histogram _ -> "histogram"

let locked t f =
  Mutex.lock t.lock;
  match f () with
  | v ->
      Mutex.unlock t.lock;
      v
  | exception e ->
      Mutex.unlock t.lock;
      raise e

(* Get-or-create is the only synchronized operation: callers cache the
   returned handle and hit it lock-free (single-writer discipline). *)
let intern t ~name ~help ~make ~cast =
  if not (valid_name name) then
    invalid_arg
      (Printf.sprintf "Registry: invalid metric name %S (use [A-Za-z0-9_.:])" name);
  locked t (fun () ->
      match Hashtbl.find_opt t.tbl name with
      | Some entry -> cast entry
      | None ->
          let metric = make () in
          let entry = { name; help; metric } in
          Hashtbl.add t.tbl name entry;
          t.rev_entries <- entry :: t.rev_entries;
          cast entry)

let mismatch name entry wanted =
  invalid_arg
    (Printf.sprintf "Registry: %s is a %s, not a %s" name
       (kind_label entry.metric) wanted)

let counter ?(help = "") t name =
  intern t ~name ~help
    ~make:(fun () -> Counter (Counter.create ()))
    ~cast:(fun entry ->
      match entry.metric with Counter c -> c | _ -> mismatch name entry "counter")

let gauge ?(help = "") t name =
  intern t ~name ~help
    ~make:(fun () -> Gauge (Gauge.create ()))
    ~cast:(fun entry ->
      match entry.metric with Gauge g -> g | _ -> mismatch name entry "gauge")

let histogram ?(help = "") ?bounds t name =
  intern t ~name ~help
    ~make:(fun () -> Histogram (Histogram.create ?bounds ()))
    ~cast:(fun entry ->
      match entry.metric with
      | Histogram h -> h
      | _ -> mismatch name entry "histogram")

let find t name = locked t (fun () -> Option.map (fun e -> e.metric) (Hashtbl.find_opt t.tbl name))

let entries t = locked t (fun () -> List.rev t.rev_entries)
