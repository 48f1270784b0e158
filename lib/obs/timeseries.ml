type t = {
  retention : float;
  selectors : Rule.selector list; (* deduplicated, first-seen order *)
  rings : (string, Ring.t) Hashtbl.t; (* selector_key -> samples *)
  scrape_instants : Ring.t;
  mutable scrapes : int;
  mutable last_scrape : float;
}

let create ?(capacity = 64) ~retention selectors =
  if not (retention > 0.) then
    invalid_arg "Timeseries.create: retention must be > 0";
  let rings = Hashtbl.create (List.length selectors) in
  let deduped =
    List.filter
      (fun sel ->
        let key = Rule.selector_key sel in
        if Hashtbl.mem rings key then false
        else begin
          Hashtbl.add rings key (Ring.create ~capacity ~retention ());
          true
        end)
      selectors
  in
  {
    retention;
    selectors = deduped;
    rings;
    scrape_instants = Ring.create ~capacity ~retention ();
    scrapes = 0;
    last_scrape = neg_infinity;
  }

let retention t = t.retention

let scrapes t = t.scrapes

(* Label-subset match: every matcher pair appears verbatim in the
   series' label set. *)
let matches (matcher : Label.t) (labels : Label.t) =
  List.for_all
    (fun (k, v) -> Label.find labels k = Some v)
    (Label.pairs matcher)

(* Reduce the matched series of [family] under [sel] to one float.
   [None] = no sample this scrape. *)
let reduce (sel : Rule.selector) (family : Registry.family) =
  let matched =
    List.filter (fun (labels, _) -> matches sel.Rule.sel_labels labels)
      family.Registry.series
  in
  if matched = [] then None
  else
    match sel.Rule.sel_stat with
    | Rule.Value ->
        let total = ref 0. and seen = ref false in
        List.iter
          (fun (_, value) ->
            match (value : Registry.value) with
            | Registry.Counter v | Registry.Gauge v ->
                seen := true;
                total := !total +. v
            | Registry.Histogram _ -> ())
          matched;
        if !seen then Some !total else None
    | Rule.Count | Rule.Sum | Rule.Quantile _ -> (
        let snap = ref None in
        List.iter
          (fun (_, value) ->
            match (value : Registry.value) with
            | Registry.Histogram s ->
                snap :=
                  Some
                    (match !snap with
                    | None -> s
                    | Some acc -> Histogram.merge acc s)
            | Registry.Counter _ | Registry.Gauge _ -> ())
          matched;
        match !snap with
        | None -> None
        | Some s -> (
            match sel.Rule.sel_stat with
            | Rule.Count -> Some (float_of_int (Histogram.count s))
            | Rule.Sum -> Some (Histogram.sum s)
            | Rule.Quantile q -> Histogram.quantile s q
            | Rule.Value -> assert false))

let scrape t ~registry ~now =
  if now < t.last_scrape then
    invalid_arg "Timeseries.scrape: time went backwards";
  t.last_scrape <- now;
  t.scrapes <- t.scrapes + 1;
  Ring.push t.scrape_instants ~time:now 0.;
  List.iter
    (fun sel ->
      match Registry.find registry sel.Rule.sel_metric with
      | None -> ()
      | Some family -> (
          match reduce sel family with
          | None -> ()
          | Some value ->
              let ring = Hashtbl.find t.rings (Rule.selector_key sel) in
              Ring.push ring ~time:now value))
    t.selectors

let ring t sel = Hashtbl.find_opt t.rings (Rule.selector_key sel)

let last t sel =
  match ring t sel with
  | None -> None
  | Some r -> Ring.find_at_or_before r ~time:infinity

let scrape_times t =
  List.rev
    (Ring.fold t.scrape_instants ~init:[] ~f:(fun acc ~time ~value:_ ->
         time :: acc))

let window_ends t sel ~now ~window =
  match ring t sel with
  | None -> None
  | Some r -> (
      match Ring.find_at_or_before r ~time:now with
      | None -> None
      | Some (t1, v1) -> (
          match Ring.find_at_or_before r ~time:(now -. window) with
          | None -> None
          | Some (t0, v0) -> Some (t0, v0, t1, v1)))

let rec eval t ~now expr =
  let lift2 f a b =
    match (eval t ~now a, eval t ~now b) with
    | Some x, Some y -> Some (f x y)
    | _ -> None
  in
  match (expr : Rule.expr) with
  | Rule.Const v -> Some v
  | Rule.Last sel -> (
      match ring t sel with
      | None -> None
      | Some r -> Option.map snd (Ring.find_at_or_before r ~time:now))
  | Rule.Delta (sel, w) ->
      Option.map
        (fun (_, v0, _, v1) -> v1 -. v0)
        (window_ends t sel ~now ~window:w)
  | Rule.Rate (sel, w) -> (
      match window_ends t sel ~now ~window:w with
      | None -> None
      | Some (t0, v0, t1, v1) ->
          if t1 > t0 then Some ((v1 -. v0) /. (t1 -. t0)) else None)
  | Rule.Window_mean (sel, w) -> (
      let sum_sel = Rule.with_stat sel Rule.Sum in
      let count_sel = Rule.with_stat sel Rule.Count in
      match
        (window_ends t sum_sel ~now ~window:w,
         window_ends t count_sel ~now ~window:w)
      with
      | Some (_, s0, _, s1), Some (_, c0, _, c1) when c1 -. c0 > 0. ->
          Some ((s1 -. s0) /. (c1 -. c0))
      | _ -> None)
  | Rule.Abs e -> Option.map Float.abs (eval t ~now e)
  | Rule.Add (a, b) -> lift2 ( +. ) a b
  | Rule.Sub (a, b) -> lift2 ( -. ) a b
  | Rule.Mul (a, b) -> lift2 ( *. ) a b
  | Rule.Div (a, b) -> (
      match (eval t ~now a, eval t ~now b) with
      | Some x, Some y when y <> 0. -> Some (x /. y)
      | _ -> None)
  | Rule.Min (a, b) -> lift2 Float.min a b
  | Rule.Max (a, b) -> lift2 Float.max a b
