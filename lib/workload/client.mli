(** Client behaviour.

    The paper's load generator is "a script that runs a single request at
    a time in a continual loop", with one client script launched per
    second during ramp-up.  A client configuration captures the mix it
    draws from and an optional think time between the response and the
    next submission (zero in the paper). *)

type t = private {
  mix : Mix.t;
  think_time : float;  (** Seconds between response and next request; >= 0. *)
}

val make : ?think_time:float -> Mix.t -> t
(** @raise Invalid_argument if [think_time < 0]. *)

val closed_loop : Job.t -> t
(** The paper's client: single-job mix, zero think time. *)

val mix : t -> Mix.t
val think_time : t -> float
