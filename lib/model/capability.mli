(** The [M(r, s, w)] capability model (Section 3, after Eq. 10).

    A computing resource has no internal parallelism: it can either send a
    message, receive a message, or compute, one activity at a time through
    a single port.  This module gives the vocabulary shared by the
    closed-form model and the discrete-event simulator, and the duration of
    each activity. *)

type activity =
  | Send of float  (** message size, Mbit. *)
  | Receive of float  (** message size, Mbit. *)
  | Compute of float  (** work, MFlop. *)

val duration : activity -> power:float -> bandwidth:float -> float
(** Time in seconds the activity occupies the resource.  [power] applies to
    [Compute]; [bandwidth] to [Send]/[Receive].
    @raise Invalid_argument on non-positive power/bandwidth or negative
    amounts. *)

val total : activity list -> power:float -> bandwidth:float -> float
(** Serial execution time of a sequence of activities (the model's core
    assumption: activities never overlap on one resource). *)
