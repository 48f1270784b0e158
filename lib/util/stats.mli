(** Descriptive statistics and least-squares fits.

    Used by the calibration pipeline (the paper fits [Wrep] against agent
    degree with a linear model, correlation 0.97), by the simulator's
    measurement windows, and by experiment reporting. *)

val mean : float array -> float
(** Arithmetic mean.  @raise Invalid_argument on an empty array. *)

val variance : float array -> float
(** Unbiased sample variance (n-1 denominator); 0 for singletons.
    @raise Invalid_argument on an empty array. *)

val stddev : float array -> float
(** Square root of {!variance}. *)

val minimum : float array -> float
(** Smallest element.  @raise Invalid_argument on an empty array. *)

val maximum : float array -> float
(** Largest element.  @raise Invalid_argument on an empty array. *)

val sum : float array -> float
(** Compensated (Kahan) sum. *)

val percentile : float array -> float -> float
(** [percentile xs p] for [p] in [\[0, 100\]], linear interpolation between
    order statistics.  @raise Invalid_argument on an empty array or [p]
    outside the range. *)

val median : float array -> float
(** [percentile xs 50.]. *)

type linear_fit = {
  slope : float;
  intercept : float;
  r : float;  (** Pearson correlation coefficient. *)
}

val linear_regression : (float * float) array -> linear_fit
(** Ordinary least squares on [(x, y)] samples.  Requires at least two
    samples with non-zero x variance; [r] is 1 when y variance is zero.
    @raise Invalid_argument otherwise. *)

val confidence_interval_95 : float array -> float * float
(** [(mean, half_width)] of the normal-approximation 95% confidence
    interval of the mean. *)

type summary = {
  n : int;
  smean : float;
  sstddev : float;
  smin : float;
  smax : float;
}

val summarize : float array -> summary
(** Convenience bundle of the descriptive statistics above. *)
