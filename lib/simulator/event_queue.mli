(** Binary min-heap keyed by (time, sequence number).

    The sequence number makes event ordering total and deterministic:
    events scheduled for the same instant fire in insertion order. *)

type 'a t

val create : unit -> 'a t

val add : 'a t -> time:float -> 'a -> unit
(** Insert with an automatically increasing sequence number.
    @raise Invalid_argument on NaN time. *)

val pop_min : 'a t -> (float * 'a) option
(** Remove and return the earliest event. *)

val next_time : 'a t -> float
(** Time of the earliest event without removing it, [Float.infinity] when
    the queue is empty — the allocation-free [peek_min] the simulation
    loop spins on. *)

val pop_min_exn : 'a t -> 'a
(** Remove and return the earliest event's payload (its time is
    [next_time], read first).  @raise Invalid_argument when empty. *)

val size : 'a t -> int
val is_empty : 'a t -> bool
