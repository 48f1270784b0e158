type estimator = Running_mean | Ewma of float | Windowed_median of int

type state =
  | Mean_state of { mutable total : float }
  | Ewma_state of { alpha : float; mutable value : float option }
  | Median_state of { window : int; mutable recent : float list (* newest first *) }

type t = {
  state : state;
  mutable n : int;
  (* Welford accumulators for the residual spread, shared by all
     estimators. *)
  mutable mean : float;
  mutable m2 : float;
}

let create estimator =
  let state =
    match estimator with
    | Running_mean -> Mean_state { total = 0.0 }
    | Ewma alpha ->
        if alpha <= 0.0 || alpha > 1.0 then
          invalid_arg "Forecast.create: Ewma alpha must be in (0, 1]";
        Ewma_state { alpha; value = None }
    | Windowed_median k ->
        if k <= 0 then invalid_arg "Forecast.create: window must be positive";
        Median_state { window = k; recent = [] }
  in
  { state; n = 0; mean = 0.0; m2 = 0.0 }

let observe_mflop t mflop =
  if mflop <= 0.0 || not (Float.is_finite mflop) then
    invalid_arg "Forecast.observe: cost must be positive and finite";
  t.n <- t.n + 1;
  let delta = mflop -. t.mean in
  t.mean <- t.mean +. (delta /. float_of_int t.n);
  t.m2 <- t.m2 +. (delta *. (mflop -. t.mean));
  match t.state with
  | Mean_state s -> s.total <- s.total +. mflop
  | Ewma_state s ->
      s.value <-
        Some
          (match s.value with
          | None -> mflop
          | Some v -> ((1.0 -. s.alpha) *. v) +. (s.alpha *. mflop))
  | Median_state s ->
      let keep = s.window - 1 in
      s.recent <- mflop :: List.filteri (fun i _ -> i < keep) s.recent

let observe t ~power ~seconds =
  if power <= 0.0 || seconds <= 0.0 then
    invalid_arg "Forecast.observe: power and seconds must be positive";
  observe_mflop t (seconds *. power)

let count t = t.n

let predict t =
  if t.n = 0 then None
  else
    match t.state with
    | Mean_state s -> Some (s.total /. float_of_int t.n)
    | Ewma_state s -> s.value
    | Median_state s ->
        Some (Adept_util.Stats.median (Array.of_list s.recent))

let residual_stddev t =
  if t.n < 2 then None else Some (sqrt (t.m2 /. float_of_int (t.n - 1)))

let of_trace estimator ~power ~seconds =
  let t = create estimator in
  Array.iter (fun s -> observe t ~power ~seconds:s) seconds;
  t
