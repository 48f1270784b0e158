type t = {
  retention : float;
  mutable times : float array;
  mutable values : float array;
  mutable head : int; (* index of the oldest sample *)
  mutable len : int;
  mutable pruned_before : float; (* max time among dropped samples *)
}

let create ?(capacity = 64) ~retention () =
  if retention < 0. then invalid_arg "Ring.create: negative retention";
  let capacity = max capacity 1 in
  {
    retention;
    times = Array.make capacity 0.;
    values = Array.make capacity 0.;
    head = 0;
    len = 0;
    pruned_before = neg_infinity;
  }

let length t = t.len

let get_time t i = t.times.((t.head + i) mod Array.length t.times)

let get_value t i = t.values.((t.head + i) mod Array.length t.times)

let oldest_time t = if t.len = 0 then None else Some (get_time t 0)

let latest_time t = if t.len = 0 then None else Some (get_time t (t.len - 1))

let grow t =
  let cap = Array.length t.times in
  let times = Array.make (2 * cap) 0. in
  let values = Array.make (2 * cap) 0. in
  for i = 0 to t.len - 1 do
    times.(i) <- get_time t i;
    values.(i) <- get_value t i
  done;
  t.times <- times;
  t.values <- values;
  t.head <- 0

let prune t ~now =
  if t.retention < infinity then begin
    let cutoff = now -. t.retention in
    let cap = Array.length t.times in
    while t.len > 0 && t.times.(t.head) < cutoff do
      let dropped = t.times.(t.head) in
      if dropped > t.pruned_before then t.pruned_before <- dropped;
      t.head <- (t.head + 1) mod cap;
      t.len <- t.len - 1
    done
  end

let push t ~time value =
  (match latest_time t with
  | Some latest when time < latest -> invalid_arg "Ring.push: time went backwards"
  | _ -> ());
  prune t ~now:time;
  if t.len = Array.length t.times then grow t;
  let cap = Array.length t.times in
  let i = (t.head + t.len) mod cap in
  t.times.(i) <- time;
  t.values.(i) <- value;
  t.len <- t.len + 1

(* Smallest logical index [i] with [get_time t i >= x], or [t.len]. *)
let lower_bound t x =
  let lo = ref 0 and hi = ref t.len in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if get_time t mid < x then lo := mid + 1 else hi := mid
  done;
  !lo

(* Smallest logical index [i] with [get_time t i > x], or [t.len]. *)
let upper_bound t x =
  let lo = ref 0 and hi = ref t.len in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if get_time t mid <= x then lo := mid + 1 else hi := mid
  done;
  !lo

let find_at_or_before t ~time =
  let i = upper_bound t time in
  if i = 0 then None else Some (get_time t (i - 1), get_value t (i - 1))

let count_in t ~t0 ~t1 =
  if t0 <= t.pruned_before then
    invalid_arg
      (Printf.sprintf
         "Ring.count_in: window start %g predates retained history (pruned \
          through %g)"
         t0 t.pruned_before);
  if t1 <= t0 then 0 else lower_bound t t1 - lower_bound t t0

let fold t ~init ~f =
  let acc = ref init in
  for i = 0 to t.len - 1 do
    acc := f !acc ~time:(get_time t i) ~value:(get_value t i)
  done;
  !acc
