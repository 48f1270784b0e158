(** Service requests.

    A job is what one client submission asks of the platform: an
    application identified by name with a compute weight [Wapp] (MFlop).
    The scheduling-phase costs come from the middleware parameters, not
    the job. *)

type t = private {
  app : string;  (** Service name, e.g. ["dgemm-310"]. *)
  wapp : float;  (** MFlop of the service phase; > 0. *)
}

val make : app:string -> wapp:float -> t
(** @raise Invalid_argument if [wapp <= 0] or the name is empty. *)

val of_dgemm : Dgemm.t -> t
(** ["dgemm-<n>"] with [Wapp = Dgemm.mflops]. *)

val app : t -> string
val wapp : t -> float
