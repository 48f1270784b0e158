(** Sharded heuristic planning over a {!Domain_pool}.

    Parallelises the paper's Algorithm 1 without changing a single
    decision: per-shard plans computed on worker domains supply a
    throughput {e hint}, the hint drives speculative precomputation of
    the bisection's probes, and the sequential driver then replays with
    those memoized builds ({!Adept.Planner.run_with_probe}).  The
    returned plan is bit-identical to [Planner.run Heuristic] for any
    shard count — mispredictions cost time, never fidelity (the QCheck
    equivalence property in the test suite pins this). *)

open Adept_platform

type diag = {
  shards_used : int;  (** Effective shard count after clamping. *)
  hint : float;  (** Best shard/merged candidate rho; 0 if none. *)
  speculated : int;  (** Probes precomputed from the predicted trajectory. *)
  inline_probes : int;
      (** Replay probes the memo missed (mispredictions); every probe of
          the plan when nothing was speculated. *)
}

val plan :
  ?shards:int ->
  ?prof:Prof.t ->
  pool:Domain_pool.t ->
  Adept_model.Params.t ->
  platform:Platform.t ->
  wapp:float ->
  demand:Adept_model.Demand.t ->
  (Adept.Planner.plan, Adept.Error.t) Stdlib.result * diag
(** Plan with the heuristic strategy, sharded across [pool]'s domains.
    [prof] collects wall-clock ["shard"] (one per shard hint, labeled
    with the shard index) and ["replay"] stage samples — pure
    observation, never a planning input.
    [shards] defaults to the pool size; it is clamped to
    [platform size / 2] so every shard keeps at least two nodes (an
    agent and a server).  Below two shards (a one-worker pool, fewer
    than four nodes) there is no hint to speculate from, and platforms
    the heuristic cannot shard (heterogeneous connectivity) have no
    pool: both run the sequential planner directly, still timed as the
    ["replay"] stage, and report [shards_used = 1], [speculated = 0]
    and [inline_probes] = the plan's evaluations. *)
