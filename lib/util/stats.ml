let require_nonempty name xs =
  if Array.length xs = 0 then invalid_arg (name ^ ": empty array")

let sum xs =
  (* Kahan compensated summation: measurement windows can mix very large
     counts with tiny residuals. *)
  let total = ref 0.0 and comp = ref 0.0 in
  Array.iter
    (fun x ->
      let y = x -. !comp in
      let t = !total +. y in
      comp := t -. !total -. y;
      total := t)
    xs;
  !total

let mean xs =
  require_nonempty "Stats.mean" xs;
  sum xs /. float_of_int (Array.length xs)

let variance xs =
  require_nonempty "Stats.variance" xs;
  let n = Array.length xs in
  if n = 1 then 0.0
  else
    let m = mean xs in
    let acc = Array.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 xs in
    acc /. float_of_int (n - 1)

let stddev xs = sqrt (variance xs)

let minimum xs =
  require_nonempty "Stats.minimum" xs;
  Array.fold_left Float.min xs.(0) xs

let maximum xs =
  require_nonempty "Stats.maximum" xs;
  Array.fold_left Float.max xs.(0) xs

let percentile xs p =
  require_nonempty "Stats.percentile" xs;
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p outside [0, 100]";
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  let n = Array.length sorted in
  if n = 1 then sorted.(0)
  else
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = int_of_float (Float.ceil rank) in
    let frac = rank -. float_of_int lo in
    (sorted.(lo) *. (1.0 -. frac)) +. (sorted.(hi) *. frac)

let median xs = percentile xs 50.0

type linear_fit = { slope : float; intercept : float; r : float }

let linear_regression samples =
  let n = Array.length samples in
  if n < 2 then invalid_arg "Stats.linear_regression: need at least two samples";
  let xs = Array.map fst samples and ys = Array.map snd samples in
  let mx = mean xs and my = mean ys in
  let sxx = ref 0.0 and syy = ref 0.0 and sxy = ref 0.0 in
  Array.iter
    (fun (x, y) ->
      let dx = x -. mx and dy = y -. my in
      sxx := !sxx +. (dx *. dx);
      syy := !syy +. (dy *. dy);
      sxy := !sxy +. (dx *. dy))
    samples;
  if !sxx = 0.0 then invalid_arg "Stats.linear_regression: zero x variance";
  let slope = !sxy /. !sxx in
  let intercept = my -. (slope *. mx) in
  let r = if !syy = 0.0 then 1.0 else !sxy /. sqrt (!sxx *. !syy) in
  { slope; intercept; r }

let confidence_interval_95 xs =
  require_nonempty "Stats.confidence_interval_95" xs;
  let m = mean xs in
  let half = 1.96 *. stddev xs /. sqrt (float_of_int (Array.length xs)) in
  (m, half)

type summary = { n : int; smean : float; sstddev : float; smin : float; smax : float }

let summarize xs =
  require_nonempty "Stats.summarize" xs;
  {
    n = Array.length xs;
    smean = mean xs;
    sstddev = stddev xs;
    smin = minimum xs;
    smax = maximum xs;
  }
