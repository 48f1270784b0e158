(** Statistical execution-time forecasting.

    The paper's model "consider[s] that we have a function to know the
    execution time"; its conclusion proposes "another approach with
    statistical mathematical function to forecast the execution time".
    This module provides that approach: online estimators fed with
    observed service durations, producing the [Wapp] the planner needs
    when the application's cost is not known analytically.

    Observations are given in seconds together with the serving node's
    power; estimation happens in MFlop space so heterogeneous servers'
    observations combine. *)

type estimator =
  | Running_mean  (** Arithmetic mean of all observations. *)
  | Ewma of float
      (** Exponentially weighted moving average with smoothing factor
          [alpha] in (0, 1]; tracks drifting workloads. *)
  | Windowed_median of int
      (** Median of the last [k] observations; robust to outliers. *)

type t

val create : estimator -> t
(** @raise Invalid_argument on [Ewma] alpha outside (0, 1] or a
    non-positive window. *)

val observe : t -> power:float -> seconds:float -> unit
(** Record one completed service: it ran [seconds] on a node of [power]
    MFlop/s, i.e. cost [seconds *. power] MFlop.
    @raise Invalid_argument on non-positive inputs. *)

val observe_mflop : t -> float -> unit
(** Record a cost already in MFlop. *)

val count : t -> int

val predict : t -> float option
(** Estimated [Wapp] in MFlop; [None] before any observation (or before
    the window fills for [Windowed_median]... it predicts from what it
    has once at least one observation exists). *)

val residual_stddev : t -> float option
(** Sample standard deviation of the observations seen so far (all
    estimators track it); [None] below two observations. *)

val of_trace :
  estimator -> power:float -> seconds:float array -> t
(** Batch construction from a timing trace. *)
