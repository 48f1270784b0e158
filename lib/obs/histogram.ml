type t = {
  alpha : float;
  gamma : float;
  log_gamma : float;
  min_value : float;
  max_value : float;
  buckets : (int, int ref) Hashtbl.t; (* bucket index -> count *)
  mutable underflow : int; (* values < min_value (incl. <= 0) *)
  mutable count : int;
  mutable sum : float;
  mutable min_v : float;
  mutable max_v : float;
  mutable exemplar : (float * int) option; (* largest (value, trace id) seen *)
}

let create ?(alpha = 0.01) ?(min_value = 1e-9) ?(max_value = 1e9) () =
  if not (alpha > 0. && alpha < 1.) then
    invalid_arg "Histogram.create: alpha must be in (0, 1)";
  if not (min_value > 0. && min_value < max_value) then
    invalid_arg "Histogram.create: need 0 < min_value < max_value";
  let gamma = (1. +. alpha) /. (1. -. alpha) in
  {
    alpha;
    gamma;
    log_gamma = log gamma;
    min_value;
    max_value;
    buckets = Hashtbl.create 64;
    underflow = 0;
    count = 0;
    sum = 0.;
    min_v = infinity;
    max_v = neg_infinity;
    exemplar = None;
  }

let bucket_index t v =
  (* smallest i with gamma^i >= v, i.e. ceil (log_gamma v) *)
  int_of_float (Float.ceil (log v /. t.log_gamma))

let record_n t v n =
  if n < 0 then invalid_arg "Histogram.record_n: negative count";
  if n > 0 && not (Float.is_nan v) then begin
    t.count <- t.count + n;
    t.sum <- t.sum +. (v *. float_of_int n);
    if v < t.min_v then t.min_v <- v;
    if v > t.max_v then t.max_v <- v;
    if v < t.min_value then t.underflow <- t.underflow + n
    else begin
      let v = if v > t.max_value then t.max_value else v in
      let i = bucket_index t v in
      match Hashtbl.find_opt t.buckets i with
      | Some r -> r := !r + n
      | None -> Hashtbl.add t.buckets i (ref n)
    end
  end

let record t v = record_n t v 1

let record_ex t v ~trace_id =
  if not (Float.is_nan v) then begin
    (match t.exemplar with
    | Some (e, _) when e >= v -> ()
    | _ -> t.exemplar <- Some (v, trace_id));
    record t v
  end

type snapshot = {
  s_alpha : float;
  s_gamma : float;
  s_min_value : float;
  s_max_value : float;
  s_buckets : (int * int) array; (* sorted by bucket index, counts > 0 *)
  s_underflow : int;
  s_count : int;
  s_sum : float;
  s_min : float;
  s_max : float;
  s_exemplar : (float * int) option;
}

let snapshot t =
  let pairs =
    Hashtbl.fold (fun i r acc -> (i, !r) :: acc) t.buckets []
    |> List.filter (fun (_, c) -> c > 0)
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  in
  {
    s_alpha = t.alpha;
    s_gamma = t.gamma;
    s_min_value = t.min_value;
    s_max_value = t.max_value;
    s_buckets = Array.of_list pairs;
    s_underflow = t.underflow;
    s_count = t.count;
    s_sum = t.sum;
    s_min = t.min_v;
    s_max = t.max_v;
    s_exemplar = t.exemplar;
  }

let merge a b =
  if a.s_alpha <> b.s_alpha then
    invalid_arg "Histogram.merge: snapshots have different alpha";
  (* Merging an empty snapshot is the identity: an empty side carries no
     samples, only its clamp bounds, and letting those widen the result's
     [s_min_value]/[s_max_value] would shift the underflow bucket bound of
     a snapshot whose recorded data never saw them. *)
  if b.s_count = 0 then a
  else if a.s_count = 0 then b
  else
  let tbl = Hashtbl.create (Array.length a.s_buckets + Array.length b.s_buckets) in
  let add (i, c) =
    match Hashtbl.find_opt tbl i with
    | Some r -> r := !r + c
    | None -> Hashtbl.add tbl i (ref c)
  in
  Array.iter add a.s_buckets;
  Array.iter add b.s_buckets;
  let pairs =
    Hashtbl.fold (fun i r acc -> (i, !r) :: acc) tbl []
    |> List.sort (fun (x, _) (y, _) -> Int.compare x y)
  in
  {
    s_alpha = a.s_alpha;
    s_gamma = a.s_gamma;
    s_min_value = Float.min a.s_min_value b.s_min_value;
    s_max_value = Float.max a.s_max_value b.s_max_value;
    s_buckets = Array.of_list pairs;
    s_underflow = a.s_underflow + b.s_underflow;
    s_count = a.s_count + b.s_count;
    s_sum = a.s_sum +. b.s_sum;
    s_min = Float.min a.s_min b.s_min;
    s_max = Float.max a.s_max b.s_max;
    s_exemplar =
      (match (a.s_exemplar, b.s_exemplar) with
      | (Some (va, _) as ea), Some (vb, _) when va >= vb -> ea
      | Some _, (Some _ as eb) -> eb
      | (Some _ as e), None | None, e -> e);
  }

let count s = s.s_count

let sum s = s.s_sum

let mean s = if s.s_count = 0 then None else Some (s.s_sum /. float_of_int s.s_count)

let min_recorded s = if s.s_count = 0 then None else Some s.s_min

let max_recorded s = if s.s_count = 0 then None else Some s.s_max

let exemplar s = s.s_exemplar

let num_buckets s = Array.length s.s_buckets + if s.s_underflow > 0 then 1 else 0

let bucket_estimate s i =
  (* midpoint of (gamma^(i-1), gamma^i] minimising relative error *)
  2. *. (s.s_gamma ** float_of_int i) /. (1. +. s.s_gamma)

let quantile s q =
  if not (q >= 0. && q <= 100.) then
    invalid_arg "Histogram.quantile: q must be in [0, 100]";
  if s.s_count = 0 then None
  else begin
    let rank = max 1 (int_of_float (Float.ceil (q /. 100. *. float_of_int s.s_count))) in
    if rank <= s.s_underflow then Some s.s_min_value
    else begin
      let seen = ref s.s_underflow in
      let result = ref None in
      (try
         Array.iter
           (fun (i, c) ->
             seen := !seen + c;
             if !seen >= rank then begin
               result := Some (bucket_estimate s i);
               raise Exit
             end)
           s.s_buckets
       with Exit -> ());
      match !result with
      | Some _ as r -> r
      | None ->
          (* only possible via fp slack in rank; fall back to the top bucket *)
          if Array.length s.s_buckets = 0 then Some s.s_min_value
          else Some (bucket_estimate s (fst s.s_buckets.(Array.length s.s_buckets - 1)))
    end
  end

let cumulative_buckets s =
  if s.s_count = 0 then []
  else begin
    let acc = ref [] in
    let running = ref 0 in
    if s.s_underflow > 0 then begin
      running := s.s_underflow;
      acc := (s.s_min_value, !running) :: !acc
    end;
    Array.iter
      (fun (i, c) ->
        running := !running + c;
        acc := (s.s_gamma ** float_of_int i, !running) :: !acc)
      s.s_buckets;
    List.rev ((infinity, s.s_count) :: !acc)
  end
