(** Job mixes.

    The paper notes that "at the time of deployment, one can know neither
    the exact job mix nor the order in which jobs will arrive" and plans
    for an assumed mix.  A mix is a weighted set of jobs; the planner uses
    its expected [Wapp], the simulator can draw jobs from it. *)

type t

val single : Job.t -> t
(** The degenerate mix used by all paper experiments. *)

val weighted : (Job.t * float) list -> t
(** Jobs with positive weights (normalised internally).
    @raise Invalid_argument on an empty list or non-positive weights. *)

val jobs : t -> (Job.t * float) list
(** Jobs with normalised weights summing to 1. *)

val expected_wapp : t -> float
(** Weight-averaged [Wapp].  A server processing the mix sequentially
    completes jobs at [w / expected_wapp], so this is the rate-correct
    effective cost for planning (see the [ablation-mix] experiment). *)

val harmonic_expected_wapp : t -> float
(** [1 / sum (p_i / wapp_i)] — the mean of per-job {e rates} converted
    back to a cost.  Always <= {!expected_wapp} (equal on single-job
    mixes); planning with it systematically under-provisions on wide
    mixes, which the [ablation-mix] experiment quantifies.  Provided as
    the tempting-but-wrong alternative and for rate-domain analyses. *)

val draw : t -> Adept_util.Rng.t -> Job.t
(** Sample a job proportionally to weight. *)
