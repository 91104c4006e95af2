(** The experiment harness behind Figures 12 and 13: sweep the number of
    advertisers, run each winner-determination method on the Section V
    workload, and report milliseconds per auction.

    Two practical deviations from the paper's setup, both recorded in
    EXPERIMENTS.md: (1) a per-point wall-clock budget — expensive methods
    (our from-scratch simplex is far slower than GLPK) measure fewer
    auctions once the budget is hit, and a series stops extending when a
    single auction exceeds the give-up threshold; (2) defaults are sized
    for a laptop-scale container and can be raised from the CLI. *)

type point = {
  n : int;
  auctions_measured : int;
  ms_per_auction : float;
  revenue : int;
      (** Engine revenue after warmup + measured auctions — deterministic
          for a given seed when the auction counts are (i.e. when the wall
          budgets don't truncate), unlike the wall-clock timing. *)
}

type series = {
  label : string;
  method_ : Essa.Engine.method_;
  points : point list;
}

val method_label : Essa.Engine.method_ -> string
(** "LP", "H", "RH", "RHTALU" — the paper's names. *)

val run_series :
  ?metrics:Essa_obs.Registry.t ->
  ?warmup:int ->
  ?point_budget_ms:float ->
  ?give_up_ms:float ->
  ?brand_fraction:float ->
  method_:Essa.Engine.method_ ->
  seed:int ->
  ns:int list ->
  auctions:int ->
  unit ->
  series
(** Measure [auctions] auctions (after [warmup] unmeasured ones, default
    10) per instance size.  Measurement stops early if the point's wall
    budget ([point_budget_ms], default 15000) runs out, and the series
    stops growing once a point averages over [give_up_ms] (default 5000)
    per auction.  [brand_fraction] (default 0) gives that share of
    advertisers Click∧Slot1 premiums, exercising multi-feature bids in
    the sweep.  [metrics], when given, is shared by every engine the
    sweep creates, so phase-latency histograms and access counters
    accumulate across the whole series (warmup auctions included). *)

val fig12 :
  ?metrics:Essa_obs.Registry.t ->
  ?seed:int -> ?ns:int list -> ?auctions:int -> ?brand_fraction:float ->
  unit -> series list
(** The Fig. 12 methods (plus the dense-tableau LP, whose series the
    give-up budget truncates early).  Defaults: seed 1, n ∈ {250, 500,
    1000, 2000, 3000, 4000, 5000}, 100 auctions per point (as in the
    paper). *)

val fig13 :
  ?metrics:Essa_obs.Registry.t ->
  ?seed:int -> ?ns:int list -> ?auctions:int -> ?brand_fraction:float ->
  unit -> series list
(** RH vs RHTALU, Fig. 13.  Defaults: seed 1, n ∈ {1000, 2500, 5000,
    10000, 15000, 20000}, 1000 auctions per point (as in the paper). *)

(** {1 Reporting} *)

val to_table : series list -> string
(** Aligned text table, one row per n, one column per method. *)

val to_csv : series list -> string
(** Long-format CSV: method,n,auctions,ms_per_auction,revenue. *)

val to_ascii_plot : ?log_y:bool -> ?height:int -> ?width:int -> series list -> string
(** A terminal scatter plot (log-scale y by default) in the spirit of the
    paper's gnuplot figures. *)
