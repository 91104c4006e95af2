(** A named collection of metrics — the unit that gets exported.

    [counter]/[gauge]/[histogram] are get-or-create: the first call under a
    name registers the metric, later calls (any engine, any domain) return
    the same handle, so identically-named recorders aggregate naturally.
    Get-or-create takes a mutex; callers cache the handle at construction
    time and the record path never touches the registry.  Counters are
    atomic and may be shared across domains; a histogram has one writer,
    so concurrent recorders each keep a private histogram and
    {!Histogram.merge_into} it after joining. *)

type metric =
  | Counter of Counter.t
  | Gauge of Gauge.t
  | Histogram of Histogram.t

type entry = { name : string; help : string; metric : metric }

type t

val create : unit -> t

val counter : ?help:string -> t -> string -> Counter.t
(** @raise Invalid_argument on an invalid name (allowed: [A-Za-z0-9_.:])
    or if the name is already registered with a different kind.  [help]
    is recorded on first registration only. *)

val gauge : ?help:string -> t -> string -> Gauge.t

val histogram : ?help:string -> ?bounds:int array -> t -> string -> Histogram.t
(** [bounds] applies on first registration only (default
    {!Histogram.default_bounds}). *)

val find : t -> string -> metric option

val entries : t -> entry list
(** All metrics in registration order (stable export order). *)
