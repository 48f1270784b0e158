(** Client demand.

    The heuristic stops growing the hierarchy once the demanded request
    rate is met (the paper's [client_volume] / [min_ser_cv]); unbounded
    demand asks for the maximum-throughput deployment. *)

type t = Unbounded | Rate of float  (** requests per second, > 0. *)

val rate : float -> t
(** @raise Invalid_argument if the rate is not positive and finite. *)

val unbounded : t

val cap : t -> float -> float
(** [cap demand rho] limits a throughput by the demand:
    [min rho r] for [Rate r], [rho] otherwise. *)

val is_met : t -> float -> bool
(** [is_met demand rho] is true when [rho] satisfies the demand (always
    false for [Unbounded]: one can always want more). *)

val min_target : t -> float -> float
(** [min_target demand x] is [min r x] for [Rate r] and [x] otherwise —
    the paper's [min_ser_cv] combining service power and client demand. *)

val equal : t -> t -> bool
