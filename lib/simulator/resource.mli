(** A simulated computing resource under the [M(r, s, w)] model: one
    single-port device that sends, receives or computes — never two at
    once.  Activities are booked FIFO in booking order; an activity asked
    for at time [t] starts at [max t free_at]. *)

type t

val create : name:string -> power:float -> t
(** @raise Invalid_argument if [power <= 0]. *)

val power : t -> float

val free_at : t -> float
(** When the port next becomes idle (0 initially). *)

val book : t -> now:float -> duration:float -> float
(** Finish time of the newly queued activity (it starts at
    [max now (free_at t)]); extends [free_at] to the returned finish.  @raise Invalid_argument on a negative duration or a [now]
    that moves backwards past an already granted booking's request time
    (bookings must be requested in non-decreasing [now] order, which the
    engine's ordered event execution guarantees). *)

val charge : t -> now:float -> duration:float -> unit
(** Consume port capacity without anyone waiting for it: extends [free_at]
    and the busy accounting exactly like {!book}, but the caller proceeds
    immediately.  Used for a server's scheduling-phase work, which a real
    SeD performs in a servant thread concurrent with (and stealing cycles
    from) the running application. *)

val backlog : t -> now:float -> float
(** Seconds of already-booked work remaining at [now]
    ([max 0 (free_at - now)]) — what a DIET server reports in its
    performance prediction. *)

val interrupt : t -> now:float -> unit
(** A crash at [now]: every queued-but-unexecuted booking is lost, so
    [free_at] snaps back to [now] (never forward).  Busy accounting is
    untouched — the port genuinely worked until the crash.  Subsequent
    bookings may be requested from [now] on. *)

val busy_seconds : t -> float
(** Total booked activity time so far. *)

val bookings : t -> int

val utilization : t -> horizon:float -> float
(** [busy_seconds / horizon] clamped to [0, 1]; the fraction of the run
    the port was occupied (assuming all bookings fit in the horizon). *)
