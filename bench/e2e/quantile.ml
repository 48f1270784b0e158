(* Order statistics for latency samples and run-to-run spread. *)

let sorted_of_list xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile of an ascending array, [p] in [0, 1]. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then Float.nan
  else
    sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let median_of_list xs =
  let a = sorted_of_list xs in
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then a.(n / 2)
  else 0.5 *. (a.((n / 2) - 1) +. a.(n / 2))

let mean_of_list = function
  | [] -> Float.nan
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* The open-loop percentile estimate, robust to the seconds-long
   stalls a shared VM inflicts.  A phase of [duration] seconds from [t0]
   splits into consecutive windows of [window] seconds; a partial last
   window is merged into the one before it (a phase shorter than one
   window is a single window).  Each window's [p]-quantile rests on its
   own samples, and the median across windows keeps one slow stretch
   from setting the run's value.  [samples] are (due time, latency)
   pairs. *)
let windowed ~p ~t0 ~duration ~window samples =
  let count = max 1 (int_of_float (duration /. window)) in
  let buckets = Array.make count [] in
  List.iter
    (fun (due, v) ->
      let i = int_of_float ((due -. t0) /. window) in
      let i = max 0 (min (count - 1) i) in
      buckets.(i) <- v :: buckets.(i))
    samples;
  Array.to_list buckets
  |> List.filter (( <> ) [])
  |> List.map (fun vs -> percentile (sorted_of_list vs) p)
  |> median_of_list

(* The window for a [p]-quantile at [rate] samples per second: just
   long enough that each window expects ten samples beyond the
   quantile.  Short windows are the point: a stall the host inflicts
   lands in few of them and the median drops it, while a cost the
   server pays every few hundred milliseconds shows in every window. *)
let window ~p ~rate = 10.0 /. ((1.0 -. p) *. rate)

(* First, second and third quartile as Python's
   [statistics.quantiles(values, n=4)] computes them (the default
   "exclusive" method), so a spread printed here matches one computed
   from the JSON results with Python.  Needs at least two values. *)
let quartiles values =
  let data = sorted_of_list values in
  let ld = Array.length data in
  if ld < 2 then invalid_arg "Quantile.quartiles: need at least two values";
  let m = ld + 1 and n = 4 in
  let q i =
    let j = i * m / n in
    let j = if j < 1 then 1 else if j > ld - 1 then ld - 1 else j in
    let delta = (i * m) - (j * n) in
    ((data.(j - 1) *. float_of_int (n - delta)) +. (data.(j) *. float_of_int delta))
    /. float_of_int n
  in
  (q 1, q 2, q 3)
