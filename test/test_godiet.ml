(* Tests for Adept_godiet: deployment plans, XML documents, launcher. *)

module Plan = Adept_godiet.Plan
module Writer = Adept_godiet.Writer
module Launcher = Adept_godiet.Launcher
module Tree = Adept_hierarchy.Tree
module Node = Adept_platform.Node
module Platform = Adept_platform.Platform

let params = Adept_model.Params.diet_lyon

let node i = Node.make ~id:i ~name:(Printf.sprintf "n%d" i) ~power:730.0 ()

let sample () =
  Tree.agent (node 0)
    [
      Tree.agent (node 1) [ Tree.server (node 3); Tree.server (node 4) ];
      Tree.server (node 2);
    ]

let platform () =
  Platform.create
    ~link:(Adept_platform.Link.homogeneous ~bandwidth:100.0 ())
    (List.init 5 node)

(* ---------- Plan ---------- *)

let test_plan_naming () =
  match Plan.of_tree (sample ()) with
  | Error e -> Alcotest.fail e
  | Ok plan ->
      let master = Plan.master plan in
      Alcotest.(check string) "master name" "MA" master.Plan.element_name;
      Alcotest.(check bool) "master kind" true (master.Plan.kind = Plan.Master_agent);
      Alcotest.(check (option string)) "master parentless" None master.Plan.parent_name;
      Alcotest.(check int) "agents incl master" 2 (List.length (Plan.agents plan));
      Alcotest.(check int) "servers" 3 (List.length (Plan.servers plan))

let test_plan_parent_links () =
  let plan = Result.get_ok (Plan.of_tree (sample ())) in
  let sed =
    List.find
      (fun e -> Node.id e.Plan.host = 3)
      (Plan.servers plan)
  in
  Alcotest.(check (option string)) "server under A-1" (Some "A-1") sed.Plan.parent_name

let test_plan_launch_order () =
  let plan = Result.get_ok (Plan.of_tree (sample ())) in
  let order = Plan.launch_order plan in
  let index name =
    let rec go i = function
      | [] -> -1
      | e :: rest -> if e.Plan.element_name = name then i else go (i + 1) rest
    in
    go 0 order
  in
  Alcotest.(check bool) "MA before A-1" true (index "MA" < index "A-1");
  Alcotest.(check bool) "A-1 before its servers" true (index "A-1" < index "SeD-1")

let test_plan_find () =
  let plan = Result.get_ok (Plan.of_tree (sample ())) in
  Alcotest.(check bool) "find MA" true (Plan.find plan "MA" <> None);
  Alcotest.(check bool) "find missing" true (Plan.find plan "nope" = None)

let test_plan_rejects_invalid () =
  Alcotest.(check bool) "server root rejected" true
    (Result.is_error (Plan.of_tree (Tree.server (node 0))))

(* ---------- Writer ---------- *)

let test_writer_document_structure () =
  let doc = Writer.document (platform ()) (sample ()) in
  List.iter
    (fun affix ->
      Alcotest.(check bool) affix true (Astring.String.is_infix ~affix doc))
    [
      "<godiet_deployment>"; "<resources>"; "compute_node"; "<link";
      "<diet_hierarchy>"; "master_agent"; "</godiet_deployment>";
    ]

let test_writer_parse_roundtrip () =
  let tree = sample () in
  let doc = Writer.document (platform ()) tree in
  match Writer.parse_document doc with
  | Error e -> Alcotest.fail e
  | Ok shape ->
      Alcotest.(check int) "size" (Tree.size tree) (Tree.size shape);
      Alcotest.(check (list string)) "names"
        (List.map Node.name (Tree.nodes tree))
        (List.map Node.name (Tree.nodes shape))

let test_writer_load_deployment_roundtrip () =
  let tree = sample () in
  let p = platform () in
  let doc = Writer.document p tree in
  match Writer.load_deployment doc with
  | Error e -> Alcotest.fail e
  | Ok (p', tree') ->
      Alcotest.(check int) "platform size" (Platform.size p) (Platform.size p');
      List.iter2
        (fun a b ->
          Alcotest.(check bool) "node preserved" true (Adept_platform.Node.equal a b))
        (Platform.nodes p) (Platform.nodes p');
      Alcotest.(check (option (float 0.0))) "bandwidth preserved" (Some 100.0)
        (Adept_platform.Link.uniform_bandwidth (Platform.link p'));
      Alcotest.(check bool) "tree identical" true (Tree.equal tree tree')

let test_writer_parse_resources_errors () =
  Alcotest.(check bool) "no nodes" true
    (Result.is_error (Writer.parse_resources "<godiet_deployment></godiet_deployment>"));
  Alcotest.(check bool) "no link" true
    (Result.is_error
       (Writer.parse_resources "<resources><compute_node name=\"a\" power=\"1\"/></resources>"));
  Alcotest.(check bool) "bad power" true
    (Result.is_error
       (Writer.parse_resources
          "<resources><compute_node name=\"a\" power=\"x\"/><link bandwidth=\"10\"/></resources>"))

let test_writer_hetero_platform_rejected () =
  let rng = Adept_util.Rng.create 2 in
  let two =
    Adept_platform.Generator.two_sites ~rng ~n_orsay:2 ~n_lyon:2 ~wan_bandwidth:10.0 ()
  in
  let tree =
    Tree.star (Platform.node two 0)
      [ Platform.node two 1; Platform.node two 2; Platform.node two 3 ]
  in
  let doc = Writer.document two tree in
  Alcotest.(check bool) "heterogeneous links not round-trippable" true
    (Result.is_error (Writer.parse_resources doc))

let test_writer_parse_garbage () =
  Alcotest.(check bool) "no hierarchy section" true
    (Result.is_error (Writer.parse_document "<godiet_deployment></godiet_deployment>"));
  Alcotest.(check bool) "empty" true (Result.is_error (Writer.parse_document ""))

(* ---------- golden files ----------

   The serialized form of the fixed 5-node plan is pinned byte-for-byte in
   test/golden/*.xml (declared as test deps in test/dune).  A mismatch
   means the on-disk XML format changed: if intentional, regenerate the
   goldens from Writer.document / Xml.to_string and mention the format
   break in the changelog. *)

let read_golden name =
  (* dune materializes the golden deps next to the test executable; resolve
     from there so `dune exec test/test_godiet.exe` works from any cwd *)
  let path = Filename.concat (Filename.dirname Sys.executable_name) name in
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_writer_golden_deployment () =
  Alcotest.(check string) "GoDIET deployment XML is byte-stable"
    (read_golden "golden/deployment_5node.xml")
    (Writer.document (platform ()) (sample ()))

let test_hierarchy_xml_golden () =
  Alcotest.(check string) "hierarchy XML is byte-stable"
    (read_golden "golden/hierarchy_5node.xml")
    (Adept_hierarchy.Xml.to_string (sample ()))

(* ---------- Launcher ---------- *)

let test_launcher_ready_time () =
  let engine = Adept_sim.Engine.create () in
  let plan = Result.get_ok (Plan.of_tree (sample ())) in
  let launched =
    Launcher.launch ~element_delay:0.5 ~engine ~params ~platform:(platform ()) plan
  in
  Alcotest.(check int) "elements" 5 launched.Launcher.launched_elements;
  Alcotest.(check (float 1e-9)) "ready at 2.5s" 2.5 launched.Launcher.ready_at

let test_launcher_xml_end_to_end () =
  let engine = Adept_sim.Engine.create () in
  let tree = sample () in
  let xml = Adept_hierarchy.Xml.to_string tree in
  match Launcher.launch_xml ~engine ~params ~platform:(platform ()) xml with
  | Error e -> Alcotest.fail e
  | Ok launched ->
      let m = launched.Launcher.middleware in
      let completed = ref false in
      Adept_sim.Middleware.submit m ~wapp:16.0
        ~on_scheduled:(fun ~server ->
          Adept_sim.Middleware.request_service m ~server ~wapp:16.0
            ~on_done:(fun () -> completed := true)
            ())
        ();
      ignore (Adept_sim.Engine.run engine);
      Alcotest.(check bool) "request completed through launched hierarchy" true !completed

let test_launcher_bad_xml () =
  let engine = Adept_sim.Engine.create () in
  Alcotest.(check bool) "bad xml" true
    (Result.is_error
       (Launcher.launch_xml ~engine ~params ~platform:(platform ()) "<nope/>"))

let test_launcher_unknown_host () =
  let engine = Adept_sim.Engine.create () in
  let foreign =
    Tree.star (Node.make ~id:0 ~name:"stranger" ~power:1.0 ()) [ node 1 ]
  in
  let xml = Adept_hierarchy.Xml.to_string foreign in
  Alcotest.(check bool) "unknown host" true
    (Result.is_error (Launcher.launch_xml ~engine ~params ~platform:(platform ()) xml))

(* ---------- staged launch ---------- *)

let big_star n =
  let nodes = List.init n node in
  let platform =
    Platform.create ~link:(Adept_platform.Link.homogeneous ~bandwidth:100.0 ()) nodes
  in
  (platform, Tree.star (List.hd nodes) (List.tl nodes))

let test_staged_no_failures () =
  let platform, tree = big_star 6 in
  let plan = Result.get_ok (Plan.of_tree tree) in
  let engine = Adept_sim.Engine.create () in
  let rng = Adept_util.Rng.create 1 in
  match Launcher.launch_staged ~rng ~engine ~params ~platform plan with
  | Error e -> Alcotest.fail e
  | Ok outcome ->
      Alcotest.(check int) "one attempt per element" 6 outcome.Launcher.attempts;
      Alcotest.(check (list string)) "nothing dropped" [] outcome.Launcher.dropped_servers;
      Alcotest.(check (option string)) "no abort" None outcome.Launcher.aborted_on;
      let deployment = Option.get outcome.Launcher.deployment in
      Alcotest.(check (float 1e-9)) "ready after 6 launches" 3.0
        deployment.Launcher.ready_at

let test_staged_server_losses_survivable () =
  let platform, tree = big_star 12 in
  let plan = Result.get_ok (Plan.of_tree tree) in
  let engine = Adept_sim.Engine.create () in
  (* seed chosen so some servers fail but the master agent survives *)
  let rec find_survivable seed =
    if seed > 200 then Alcotest.fail "no seed drops a server without killing the MA"
    else begin
      let engine = Adept_sim.Engine.create () in
      let rng = Adept_util.Rng.create seed in
      let policy =
        { Launcher.element_delay = 0.1; failure_probability = 0.3; max_retries = 0 }
      in
      match Launcher.launch_staged ~policy ~rng ~engine ~params ~platform plan with
      | Ok ({ Launcher.deployment = Some _; dropped_servers = _ :: _; _ } as o) -> o
      | Ok _ | Error _ -> find_survivable (seed + 1)
    end
  in
  ignore engine;
  let outcome = find_survivable 0 in
  let deployment = Option.get outcome.Launcher.deployment in
  (* the surviving middleware still serves requests *)
  let m = deployment.Launcher.middleware in
  Alcotest.(check bool) "servers remain" true
    (Adept_sim.Middleware.server_ids m <> []);
  Alcotest.(check bool) "fewer elements than planned" true
    (deployment.Launcher.launched_elements < 12)

let test_staged_agent_loss_aborts () =
  let platform, tree = big_star 4 in
  let plan = Result.get_ok (Plan.of_tree tree) in
  (* probability ~1 - epsilon: first element (the master agent) fails *)
  let engine = Adept_sim.Engine.create () in
  let rng = Adept_util.Rng.create 1 in
  let policy =
    { Launcher.element_delay = 0.1; failure_probability = 0.99; max_retries = 1 }
  in
  match Launcher.launch_staged ~policy ~rng ~engine ~params ~platform plan with
  | Error e -> Alcotest.fail e
  | Ok outcome ->
      Alcotest.(check (option string)) "aborted on the master" (Some "MA")
        outcome.Launcher.aborted_on;
      Alcotest.(check bool) "no deployment" true (outcome.Launcher.deployment = None)

let test_staged_retries_help () =
  (* with generous retries even a flaky platform comes fully up *)
  let platform, tree = big_star 8 in
  let plan = Result.get_ok (Plan.of_tree tree) in
  let engine = Adept_sim.Engine.create () in
  let rng = Adept_util.Rng.create 7 in
  let policy =
    { Launcher.element_delay = 0.1; failure_probability = 0.3; max_retries = 50 }
  in
  match Launcher.launch_staged ~policy ~rng ~engine ~params ~platform plan with
  | Error e -> Alcotest.fail e
  | Ok outcome ->
      Alcotest.(check (option string)) "no abort" None outcome.Launcher.aborted_on;
      Alcotest.(check (list string)) "nothing dropped" [] outcome.Launcher.dropped_servers;
      Alcotest.(check bool) "retries consumed attempts" true
        (outcome.Launcher.attempts > 8)

let test_staged_policy_validation () =
  let platform, tree = big_star 4 in
  let plan = Result.get_ok (Plan.of_tree tree) in
  let engine = Adept_sim.Engine.create () in
  let rng = Adept_util.Rng.create 1 in
  let bad = { Launcher.element_delay = 0.1; failure_probability = 1.0; max_retries = 0 } in
  Alcotest.(check bool) "p = 1 rejected" true
    (Result.is_error (Launcher.launch_staged ~policy:bad ~rng ~engine ~params ~platform plan))

let () =
  Alcotest.run "godiet"
    [
      ( "plan",
        [
          Alcotest.test_case "naming" `Quick test_plan_naming;
          Alcotest.test_case "parent links" `Quick test_plan_parent_links;
          Alcotest.test_case "launch order" `Quick test_plan_launch_order;
          Alcotest.test_case "find" `Quick test_plan_find;
          Alcotest.test_case "rejects invalid" `Quick test_plan_rejects_invalid;
        ] );
      ( "writer",
        [
          Alcotest.test_case "document structure" `Quick test_writer_document_structure;
          Alcotest.test_case "parse roundtrip" `Quick test_writer_parse_roundtrip;
          Alcotest.test_case "load deployment roundtrip" `Quick
            test_writer_load_deployment_roundtrip;
          Alcotest.test_case "parse resources errors" `Quick
            test_writer_parse_resources_errors;
          Alcotest.test_case "hetero platform rejected" `Quick
            test_writer_hetero_platform_rejected;
          Alcotest.test_case "parse garbage" `Quick test_writer_parse_garbage;
          Alcotest.test_case "golden deployment xml" `Quick test_writer_golden_deployment;
          Alcotest.test_case "golden hierarchy xml" `Quick test_hierarchy_xml_golden;
        ] );
      ( "launcher",
        [
          Alcotest.test_case "ready time" `Quick test_launcher_ready_time;
          Alcotest.test_case "xml end to end" `Quick test_launcher_xml_end_to_end;
          Alcotest.test_case "bad xml" `Quick test_launcher_bad_xml;
          Alcotest.test_case "unknown host" `Quick test_launcher_unknown_host;
        ] );
      ( "staged-launch",
        [
          Alcotest.test_case "no failures" `Quick test_staged_no_failures;
          Alcotest.test_case "server losses survivable" `Quick
            test_staged_server_losses_survivable;
          Alcotest.test_case "agent loss aborts" `Quick test_staged_agent_loss_aborts;
          Alcotest.test_case "retries help" `Quick test_staged_retries_help;
          Alcotest.test_case "policy validation" `Quick test_staged_policy_validation;
        ] );
    ]
