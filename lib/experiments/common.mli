(** Shared experiment machinery: run contexts, report structure, and the
    constants every reproduction uses. *)

type fidelity =
  | Quick  (** Reduced client counts and windows — used by the test suite. *)
  | Full  (** The benchmark harness's full parameter sweeps. *)

type context = {
  fidelity : fidelity;
  seed : int;  (** Seeds platform generation and simulation. *)
  out_dir : string option;  (** Where to write CSV series, if anywhere. *)
}

val default_context : context
(** Full fidelity, seed 42, no CSV output. *)

val quick_context : context

type report = {
  id : string;
  title : string;
  paper_reference : string;  (** What the paper reports for this artefact. *)
  tables : (string * Adept_util.Table.t) list;
  notes : string list;
  series : (string * Adept_util.Csv.t) list;  (** Figure data, one per curve set. *)
}

val render : report -> string
(** Human-readable block: header, tables, notes. *)

val write_series : context -> report -> unit
(** Save each series as [<out_dir>/<id>-<name>.csv] when [out_dir] is
    set. *)

val node_power : float
(** 730 MFlop/s — the era-calibrated node capacity (DESIGN.md §2). *)

val lyon_bandwidth : float
(** 100 Mbit/s (calibration site). *)

val params : Adept_model.Params.t
(** Table 3 constants. *)

val star_scenario :
  ?faults:Adept_sim.Faults.t ->
  dgemm:int ->
  servers:int ->
  seed:int ->
  unit ->
  Adept_sim.Scenario.t
(** Lyon star deployment with the given server count, closed-loop DGEMM
    clients — the Section 5.2 validation setup.  [faults] (default
    {!Adept_sim.Faults.none}) installs a fault schedule. *)

val measure_series :
  Adept_sim.Scenario.t ->
  clients:int list ->
  warmup:float ->
  duration:float ->
  (int * float) list
(** Throughput per client count (alias of
    {!Adept_sim.Scenario.throughput_series} with the harness defaults). *)
