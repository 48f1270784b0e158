module Error = Adept.Error

type mode = Off | Direct | Canary

let mode_name = function Off -> "off" | Direct -> "direct" | Canary -> "canary"

let mode_of_string = function
  | "off" -> Ok Off
  | "direct" -> Ok Direct
  | "canary" -> Ok Canary
  | other ->
      Error (Error.invalid_input "Rollout: mode must be off, direct or canary, got %s" other)

type config = {
  mode : mode;
  canary_fraction : float;
  bake_window : float;
  watch : string list;
}

let off = { mode = Off; canary_fraction = 0.0; bake_window = 0.0; watch = [] }

let ( let* ) = Result.bind

let config ?(canary_fraction = 0.25) ?(bake_window = 2.0)
    ?(watch = [ "model-drift" ]) mode =
  match mode with
  | Off -> Ok off
  | Direct | Canary ->
      let* () =
        if
          mode = Canary
          && (canary_fraction <= 0.0 || canary_fraction >= 1.0
             || Float.is_nan canary_fraction)
        then
          Error
            (Error.invalid_input
               "Rollout.config: canary_fraction must be in (0, 1), got %g"
               canary_fraction)
        else Ok ()
      in
      let* () =
        if mode = Canary && (bake_window <= 0.0 || not (Float.is_finite bake_window))
        then
          Error
            (Error.invalid_input
               "Rollout.config: bake_window must be positive and finite, got %g"
               bake_window)
        else Ok ()
      in
      Ok { mode; canary_fraction; bake_window; watch }

(* Canary membership must be a pure function of the client id: the same
   client lands on the same side of the split in every run (and in the
   direct-vs-canary comparison runs of the same scenario), and no RNG is
   drawn, so attaching a canary rollout cannot shift the workload
   stream.  Knuth's multiplicative hash scrambles consecutive client ids
   across the unit interval. *)
let is_canary cfg ~client =
  cfg.mode = Canary
  &&
  let h = client * 2654435761 land 0x3FFFFFFF in
  float_of_int h /. float_of_int 0x40000000 < cfg.canary_fraction

type step =
  | Canary_started
  | Canary_enacted
  | Promote_started
  | Promote_finished
  | Rollback_started
  | Rollback_finished
  | Direct_swap

let step_name = function
  | Canary_started -> "canary-started"
  | Canary_enacted -> "canary-enacted"
  | Promote_started -> "promote-started"
  | Promote_finished -> "promoted"
  | Rollback_started -> "rollback-started"
  | Rollback_finished -> "rolled-back"
  | Direct_swap -> "direct-enacted"

type event = { at : float; step : step; alerts : string list }

type outcome = Direct_enacted | Promoted | Rolled_back

let outcome_name = function
  | Direct_enacted -> "direct"
  | Promoted -> "promoted"
  | Rolled_back -> "rolled-back"

type record = {
  outcome : outcome;
  canary_fraction : float;
  bake_window : float;
  trail : event list;
}

(* Bake verdict: any watched rule still firing at the bake deadline
   condemns the canary.  An empty watch list watches everything — the
   conservative default for ad-hoc rule sets. *)
let decide cfg ~firing =
  let cited =
    match cfg.watch with
    | [] -> firing
    | watch -> List.filter (fun name -> List.mem name watch) firing
  in
  match cited with [] -> `Promote | names -> `Rollback names

type phase =
  | Idle
  | Canary_migrating of float
  | Baking of float
  | Promoting of float
  | Rolling_back of float

type t = { cfg : config; mutable phase : phase; mutable trail : event list }

let create cfg = { cfg; phase = Idle; trail = [] }

let config_of t = t.cfg

let phase t = t.phase

let active t = t.phase <> Idle

let set_phase t phase = t.phase <- phase

let push t ~at ?(alerts = []) step = t.trail <- { at; step; alerts } :: t.trail

let trail t = List.rev t.trail

let reset_trail t = t.trail <- []

(* Snapshot the accumulated trail into the typed record attached to the
   replan that finished (promoted, rolled back, or enacted directly). *)
let snapshot t ~outcome =
  let trail = trail t in
  t.trail <- [];
  {
    outcome;
    canary_fraction = t.cfg.canary_fraction;
    bake_window = t.cfg.bake_window;
    trail;
  }

(* The trail as labeled phase intervals for the dashboard: each opening
   step spans to its matching closing step (an interval the run ended
   inside stays open).  [Direct_swap] is a point event, not a phase. *)
let phase_spans trail =
  let find_after at step =
    List.find_map
      (fun e -> if e.step = step && e.at >= at then Some e.at else None)
      trail
  in
  List.filter_map
    (fun e ->
      match e.step with
      | Canary_started ->
          Some ("canary-migration", e.at, find_after e.at Canary_enacted)
      | Canary_enacted ->
          let close =
            match find_after e.at Promote_started with
            | Some t -> Some t
            | None -> find_after e.at Rollback_started
          in
          Some ("bake", e.at, close)
      | Promote_started ->
          Some ("promote", e.at, find_after e.at Promote_finished)
      | Rollback_started ->
          Some ("rollback", e.at, find_after e.at Rollback_finished)
      | Promote_finished | Rollback_finished | Direct_swap -> None)
    trail

(* ---------- timeline export ---------- *)

let step_line { at; step; alerts } =
  let str = Adept_obs.Label.json_string in
  Printf.sprintf "{\"at\":%.6f,\"step\":%s,\"alerts\":[%s]}\n" at
    (str (step_name step))
    (String.concat "," (List.map str alerts))

(* The rollout decision trail as JSON lines, optionally interleaved in
   chronological order with the alert timeline that drove it (the same
   bytes {!Adept_obs.Export.alert_timeline_jsonl} exports, so the merged
   document diffs cleanly against either source).  Ties put the alert
   transition first: the alert is the cause, the transition the effect. *)
let timeline_jsonl ?alerts trail =
  let steps = List.map (fun ev -> (ev.at, step_line ev)) trail in
  let alert_lines =
    match alerts with
    | None -> []
    | Some a ->
        let lines =
          String.split_on_char '\n' (Adept_obs.Export.alert_timeline_jsonl a)
          |> List.filter (fun l -> l <> "")
        in
        List.map2
          (fun (tr : Adept_obs.Alert.transition) line ->
            (tr.Adept_obs.Alert.at, line ^ "\n"))
          (Adept_obs.Alert.transitions a)
          lines
  in
  let rec merge xs ys =
    match (xs, ys) with
    | [], rest | rest, [] -> List.map snd rest
    | (ta, la) :: xs', (tb, lb) :: ys' ->
        if ta <= tb then la :: merge xs' ys else lb :: merge xs ys'
  in
  String.concat "" (merge alert_lines steps)
