type t = { jobs : (Job.t * float) array }

let weighted entries =
  if entries = [] then invalid_arg "Mix.weighted: empty mix";
  let total =
    List.fold_left
      (fun acc (_, w) ->
        if w <= 0.0 || not (Float.is_finite w) then
          invalid_arg "Mix.weighted: weights must be positive and finite";
        acc +. w)
      0.0 entries
  in
  { jobs = Array.of_list (List.map (fun (j, w) -> (j, w /. total)) entries) }

let single job = weighted [ (job, 1.0) ]

let jobs t = Array.to_list t.jobs

let expected_wapp t =
  Array.fold_left (fun acc (j, p) -> acc +. (p *. Job.wapp j)) 0.0 t.jobs

let harmonic_expected_wapp t =
  let inv = Array.fold_left (fun acc (j, p) -> acc +. (p /. Job.wapp j)) 0.0 t.jobs in
  1.0 /. inv

let draw t rng = Adept_util.Rng.pick_weighted rng t.jobs
