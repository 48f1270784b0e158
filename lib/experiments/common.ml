module Table = Adept_util.Table
module Csv = Adept_util.Csv

type fidelity = Quick | Full

type context = { fidelity : fidelity; seed : int; out_dir : string option }

let default_context = { fidelity = Full; seed = 42; out_dir = None }

let quick_context = { fidelity = Quick; seed = 42; out_dir = None }

type report = {
  id : string;
  title : string;
  paper_reference : string;
  tables : (string * Table.t) list;
  notes : string list;
  series : (string * Csv.t) list;
}

let render r =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf (Printf.sprintf "=== %s: %s ===\n" r.id r.title);
  Buffer.add_string buf (Printf.sprintf "paper: %s\n" r.paper_reference);
  List.iter
    (fun (name, table) ->
      Buffer.add_string buf (Printf.sprintf "\n-- %s --\n" name);
      Buffer.add_string buf (Table.render table))
    r.tables;
  if r.notes <> [] then begin
    Buffer.add_string buf "\nnotes:\n";
    List.iter (fun n -> Buffer.add_string buf (Printf.sprintf "  * %s\n" n)) r.notes
  end;
  Buffer.contents buf

let write_series ctx r =
  match ctx.out_dir with
  | None -> ()
  | Some dir ->
      List.iter
        (fun (name, csv) -> Csv.save csv (Filename.concat dir (r.id ^ "-" ^ name ^ ".csv")))
        r.series

let node_power = 730.0

let lyon_bandwidth = 100.0

let params = Adept_model.Params.diet_lyon

let star_scenario ?faults ~dgemm ~servers ~seed () =
  let platform = Adept_platform.Generator.grid5000_lyon ~n:(servers + 1) () in
  let nodes = Adept_platform.Platform.nodes platform in
  let tree =
    Adept_hierarchy.Tree.star (List.hd nodes) (List.tl nodes)
  in
  let job = Adept_workload.Job.of_dgemm (Adept_workload.Dgemm.make dgemm) in
  Adept_sim.Scenario.make ?faults ~seed ~params ~platform
    ~client:(Adept_workload.Client.closed_loop job) tree

let measure_series scenario ~clients ~warmup ~duration =
  Adept_sim.Scenario.throughput_series scenario ~client_counts:clients ~warmup ~duration
