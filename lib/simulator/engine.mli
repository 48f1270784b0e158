(** Discrete-event simulation engine.

    A monotonically advancing clock driving a queue of timestamped
    callbacks.  Deterministic: same schedule calls, same execution order
    (ties fire in insertion order). *)

type t

val create : unit -> t

val now : t -> float
(** Current simulation time, seconds; starts at 0. *)

val schedule_at : t -> time:float -> (unit -> unit) -> unit
(** Enqueue a callback.  @raise Invalid_argument for a time in the past
    (before [now]) or NaN. *)

val schedule : t -> delay:float -> (unit -> unit) -> unit
(** [schedule_at ~time:(now + delay)].  @raise Invalid_argument on a
    negative delay. *)

val schedule_every : t -> interval:float -> until:float -> (now:float -> unit) -> unit
(** Self-rescheduling periodic callback at [now + interval],
    [now + 2*interval], ... while the tick time is [<= until].  Only one
    event sits in the queue at a time; the next tick is armed after the
    callback runs, so a tick that itself advances past [until] stops the
    chain.  @raise Invalid_argument unless [interval > 0]. *)

val pending : t -> int

type outcome = Exhausted  (** No events left. *)
             | Horizon_reached  (** Stopped at the time limit. *)
             | Event_limit  (** Stopped after [max_events]. *)

val run : ?until:float -> ?max_events:int -> t -> outcome
(** Process events in order.  [until] stops before executing any event
    later than the horizon and sets the clock to the horizon;
    [max_events] is a safety valve against runaway simulations. *)
