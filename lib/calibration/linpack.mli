(** A Linpack-style mini-benchmark.

    The paper measured node capacity "in MFlops using a mini-benchmark
    extracted from Linpack" — both to parameterise the model and to
    re-measure nodes after background-loading them.  This module measures
    the actual machine it runs on (dense DAXPY/DGEMM-like kernels over a
    fixed problem size), which the CLI's [bench-node] command and the
    calibration tests use.  Synthetic experiments use fixed powers instead
    so results stay deterministic. *)

val daxpy_mflops : ?n:int -> ?repeats:int -> unit -> float
(** Measured MFlop/s of a [y <- a*x + y] sweep ([2n] flops per pass).
    Defaults: n = 1_000_000, repeats = 20. *)

val dgemm_mflops : ?n:int -> ?repeats:int -> unit -> float
(** Measured MFlop/s of a naive triple-loop [n x n] matrix multiply
    ([2 n^3] flops per pass).  Defaults: n = 192, repeats = 5. *)

val simulate_background_load : base:float -> load_fraction:float -> float
(** What the mini-benchmark would report on a node whose cycles are
    [load_fraction] consumed by background work — the paper's
    heterogenisation arithmetic, exposed for tests.
    @raise Invalid_argument unless [0 <= load_fraction < 1]. *)
