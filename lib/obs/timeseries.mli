(** Bounded time series scraped from a {!Registry}.

    A store is declared over a fixed set of {!Rule.selector}s.  Each
    {!scrape} reduces every selector against the registry's current
    state — summing matched counter/gauge series, merging matched
    histogram snapshots — and pushes one [(time, value)] sample per
    selector into a retention-pruned {!Ring}.  Memory is therefore
    O(selectors x samples-per-window), independent of run length.

    {!eval} interprets a {!Rule.expr} against the stored samples at a
    given instant and returns [None] when the expression needs history
    the store does not (yet) have — a missing family, an empty window,
    a window reaching past retention.  Alert rules treat [None] as
    "condition not met", which gives fresh runs a natural warmup grace
    period instead of spurious fires. *)

type t

val create : ?capacity:int -> retention:float -> Rule.selector list -> t
(** Selectors are deduplicated by {!Rule.selector_key}.  [capacity] is
    the initial per-selector ring allocation.
    @raise Invalid_argument if [retention <= 0]. *)

val retention : t -> float

val scrapes : t -> int
(** Number of {!scrape} calls so far. *)

val scrape : t -> registry:Registry.t -> now:float -> unit
(** Sample every selector at simulated time [now].  A selector whose
    family is missing, matches no series, or reduces over zero
    histogram observations records no sample this scrape (gaps, not
    zeros).
    @raise Invalid_argument if [now] decreases between scrapes. *)

val last : t -> Rule.selector -> (float * float) option
(** Most recent retained [(time, value)] sample for a selector. *)

val scrape_times : t -> float list
(** Retained scrape instants, oldest first. *)

val eval : t -> now:float -> Rule.expr -> float option
(** Evaluate an expression at [now].  [Rate]/[Delta]/[Window_mean] use
    the two-point method over the trailing window: the change between
    the last sample at-or-before [now] and the last sample at-or-before
    [now - w] ([Rate] divides by the actual sample spacing).  [None]
    when any needed sample is absent, or on division by zero. *)
