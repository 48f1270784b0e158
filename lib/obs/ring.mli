(** A pruned ring buffer of [(time, value)] samples.

    Times must be pushed in non-decreasing order (discrete-event
    completions are).  On every push, samples older than
    [latest - retention] are dropped from the front, so memory is
    bounded by the number of samples inside the retention window —
    independent of run length.  Queries over the retained window are
    O(log n) thanks to the monotone times. *)

type t

val create : ?capacity:int -> retention:float -> unit -> t
(** [retention] may be [infinity] (never prune).
    @raise Invalid_argument if [retention < 0]. *)

val push : t -> time:float -> float -> unit
(** @raise Invalid_argument if [time] decreases. *)

val length : t -> int

val oldest_time : t -> float option
(** Time of the oldest {e retained} sample. *)

val find_at_or_before : t -> time:float -> (float * float) option
(** Latest retained sample [(time', value)] with [time' <= time], by
    binary search.  [None] when every such sample has been pruned (or
    none was ever pushed) — callers treat that as "insufficient
    history" rather than an error. *)

val count_in : t -> t0:float -> t1:float -> int
(** Number of retained samples with [t0 <= time < t1] (half-open, the
    usual window convention), by binary search.
    @raise Invalid_argument if [t0] predates the retained window
    (i.e. samples that could have matched were pruned) — callers must
    keep their query windows within [retention]. *)

val fold : t -> init:'a -> f:('a -> time:float -> value:float -> 'a) -> 'a
