(** Typed alert rules over registry time series.

    A rule compares two {!type:expr} expressions every evaluation tick;
    when the comparison holds continuously for {!field:for_duration}
    simulated seconds the alert fires (Prometheus [for:] semantics).
    Expressions read from a {!Timeseries} store — they never touch the
    registry directly — so every signal a rule can see is bounded by the
    store's retention window.

    Three families cover the monitoring taxonomy:
    - {e threshold}: [last(series) > bound];
    - {e for-duration}: any rule with [for_duration > 0];
    - {e two-window burn rate}: [min(rate(s[short]), rate(s[long])) > bound]
      — both the fast and the slow window must agree, which rides out
      short spikes without missing sustained burn ({!burn_rate}). *)

type severity = Info | Warning | Critical

val severity_name : severity -> string
(** ["info"] / ["warning"] / ["critical"]. *)

(** How a selector reduces the matched series to one float per scrape:
    [Value] sums counter/gauge values; [Count]/[Sum]/[Quantile q] apply
    to histograms (snapshots are merged across matched series first). *)
type stat = Value | Count | Sum | Quantile of float

type selector = private {
  sel_metric : string;  (** registry family name *)
  sel_labels : Label.t;  (** label-subset match; [empty] matches all *)
  sel_stat : stat;
}

val selector : ?labels:Label.t -> ?stat:stat -> string -> selector
(** @raise Invalid_argument on a malformed metric name or a [Quantile]
    outside [\[0, 100\]]. *)

val with_stat : selector -> stat -> selector
(** Same metric and matcher, different reduction. *)

val selector_key : selector -> string
(** Canonical identity, e.g. [adept_messages_total{kind="sched"}/p95] —
    two selectors with equal keys share one ring in a time-series store. *)

type expr =
  | Const of float
  | Last of selector  (** most recent scraped sample *)
  | Rate of selector * float
      (** per-second increase over a trailing window (counters) *)
  | Delta of selector * float  (** absolute increase over the window *)
  | Window_mean of selector * float
      (** histogram mean over the window: delta sum / delta count *)
  | Abs of expr
  | Add of expr * expr
  | Sub of expr * expr
  | Mul of expr * expr
  | Div of expr * expr  (** division by zero evaluates to "no data" *)
  | Min of expr * expr
  | Max of expr * expr

type cmp = Gt | Lt

type t = private {
  name : string;
  severity : severity;
  for_duration : float;
  lhs : expr;
  cmp : cmp;
  rhs : expr;
}

val v :
  ?severity:severity -> ?for_duration:float -> string -> expr -> cmp -> expr -> t
(** [v name lhs cmp rhs] with [severity] defaulting to [Warning] and
    [for_duration] to [0.] (fires on the first true evaluation).
    @raise Invalid_argument on an invalid name
    ([\[A-Za-z_\]\[A-Za-z0-9_.:/-\]*]), a negative/NaN [for_duration],
    or a non-positive expression window. *)

val threshold :
  ?severity:severity -> ?for_duration:float -> string -> selector ->
  cmp -> float -> t
(** [threshold name sel cmp bound] = [v name (Last sel) cmp (Const bound)]. *)

val deviation :
  ?severity:severity -> ?for_duration:float -> string ->
  measured:expr -> reference:expr -> tolerance:float -> t
(** Fires when [|measured / reference - 1| > tolerance] — relative drift
    of a measurement from a model prediction. *)

val burn_rate :
  ?severity:severity -> string -> selector -> short:float -> long:float ->
  bound:float -> t
(** Two-window burn rate: [min(rate(sel[short]), rate(sel[long])) > bound].
    @raise Invalid_argument unless [0 < short < long]. *)

val selectors : t -> selector list
(** Every selector the rule reads, deduplicated by {!selector_key};
    [Window_mean] contributes its [Sum] and [Count] sub-selectors. *)

val max_window : t -> float
(** Longest trailing window any sub-expression needs ([0.] if none) —
    the retention floor for the backing time-series store. *)

val to_string : t -> string
(** Renders in the concrete syntax {!parse} accepts. *)

val parse : string -> (t list, string) result
(** Parse a rules file.  One rule per line:
    {v alert NAME [severity=info|warning|critical] [for=SECONDS] when EXPR (>|<) EXPR v}
    Blank lines and [#] comments are skipped.  Expression grammar:
    [+ -] then [* /] (left-associative), parentheses, numbers, and the
    functions [last(s)], [count(s)], [sum(s)], [p50(s)], [p95(s)],
    [p99(s)], [quantile(s, q)], [rate(s[W])], [delta(s[W])],
    [mean(s[W])], [abs(e)], [min(e, e)], [max(e, e)] where [s] is
    [metric_name] or [metric_name{k="v",...}] and [W] is the trailing
    window in seconds.  Errors carry the line number. *)
