(* Tests for Adept_platform: nodes, links, platforms, generators, catalog. *)

open Adept_platform
module Rng = Adept_util.Rng

let node ?(id = 0) ?(name = "n0") ?(power = 100.0) ?cluster () =
  Node.make ~id ~name ~power ?cluster ()

(* ---------- Node ---------- *)

let test_node_accessors () =
  let n = node ~id:3 ~name:"x" ~power:250.0 ~cluster:"lyon" () in
  Alcotest.(check int) "id" 3 (Node.id n);
  Alcotest.(check string) "name" "x" (Node.name n);
  Alcotest.(check (float 0.0)) "power" 250.0 (Node.power n);
  Alcotest.(check string) "cluster" "lyon" (Node.cluster n)

let test_node_validation () =
  Alcotest.check_raises "zero power"
    (Invalid_argument "Node.make: power must be positive and finite") (fun () ->
      ignore (node ~power:0.0 ()));
  Alcotest.check_raises "negative id"
    (Invalid_argument "Node.make: id must be non-negative") (fun () ->
      ignore (node ~id:(-1) ()));
  Alcotest.check_raises "empty name"
    (Invalid_argument "Node.make: name must be non-empty") (fun () ->
      ignore (node ~name:"" ()))

let test_node_with_power () =
  let n = node ~power:100.0 () in
  Alcotest.(check (float 0.0)) "re-measured" 60.0 (Node.power (Node.with_power n 60.0))

let test_node_power_sort () =
  let a = node ~id:0 ~name:"a" ~power:50.0 ()
  and b = node ~id:1 ~name:"b" ~power:100.0 ()
  and c = node ~id:2 ~name:"c" ~power:100.0 () in
  let sorted = List.sort Node.compare_by_power_desc [ a; c; b ] in
  Alcotest.(check (list int)) "power desc, id asc on ties" [ 1; 2; 0 ]
    (List.map Node.id sorted)

(* ---------- Link ---------- *)

let test_link_homogeneous () =
  let l = Link.homogeneous ~bandwidth:100.0 () in
  let a = node ~id:0 ~name:"a" () and b = node ~id:1 ~name:"b" () in
  Alcotest.(check (float 0.0)) "bandwidth" 100.0 (Link.bandwidth l a b);
  Alcotest.(check bool) "homogeneous" true (Link.is_homogeneous l);
  Alcotest.(check (option (float 0.0))) "uniform" (Some 100.0) (Link.uniform_bandwidth l)

let test_link_inter_cluster () =
  let l = Link.inter_cluster ~default:1000.0 [ (("lyon", "orsay"), 50.0) ] in
  let lyon = node ~id:0 ~name:"l" ~cluster:"lyon" ()
  and orsay = node ~id:1 ~name:"o" ~cluster:"orsay" () in
  Alcotest.(check (float 0.0)) "wan" 50.0 (Link.bandwidth l lyon orsay);
  Alcotest.(check (float 0.0)) "wan symmetric" 50.0 (Link.bandwidth l orsay lyon);
  Alcotest.(check (float 0.0)) "lan" 1000.0 (Link.bandwidth l lyon lyon);
  Alcotest.(check bool) "not homogeneous" false (Link.is_homogeneous l);
  Alcotest.(check (option (float 0.0))) "no uniform" None (Link.uniform_bandwidth l)

let test_link_validation () =
  Alcotest.check_raises "zero bandwidth"
    (Invalid_argument "Link: bandwidth must be positive and finite") (fun () ->
      ignore (Link.homogeneous ~bandwidth:0.0 ()));
  Alcotest.check_raises "negative latency"
    (Invalid_argument "Link: latency must be non-negative and finite") (fun () ->
      ignore (Link.homogeneous ~bandwidth:1.0 ~latency:(-0.1) ()))

(* ---------- Platform ---------- *)

let test_platform_of_powers () =
  let p = Platform.of_powers [ 100.0; 200.0; 300.0 ] in
  Alcotest.(check int) "size" 3 (Platform.size p);
  Alcotest.(check (float 0.0)) "node 1 power" 200.0 (Node.power (Platform.node p 1));
  Alcotest.(check (float 0.0)) "total" 600.0 (Platform.total_power p)

let test_platform_dense_ids () =
  let bad = [ node ~id:1 ~name:"a" (); node ~id:0 ~name:"b" () ] in
  Alcotest.(check bool) "non-dense rejected" true
    (match Platform.create bad with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_platform_duplicate_names () =
  let bad = [ node ~id:0 ~name:"same" (); node ~id:1 ~name:"same" () ] in
  Alcotest.(check bool) "duplicate names rejected" true
    (match Platform.create bad with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_platform_empty () =
  Alcotest.check_raises "empty" (Invalid_argument "Platform.create: empty node list")
    (fun () -> ignore (Platform.create []))

let test_platform_node_range () =
  let p = Platform.of_powers [ 1.0 ] in
  Alcotest.check_raises "out of range"
    (Invalid_argument "Platform.node: id 5 out of range") (fun () ->
      ignore (Platform.node p 5))

let test_platform_sorted () =
  let p = Platform.of_powers [ 100.0; 300.0; 200.0 ] in
  Alcotest.(check (list int)) "sorted ids" [ 1; 2; 0 ]
    (List.map Node.id (Platform.sorted_by_power_desc p))

let test_platform_homogeneous_check () =
  Alcotest.(check bool) "homogeneous" true
    (Platform.is_homogeneous_compute (Platform.of_powers [ 5.0; 5.0 ]));
  Alcotest.(check bool) "heterogeneous" false
    (Platform.is_homogeneous_compute (Platform.of_powers [ 5.0; 6.0 ]))

let test_platform_subset () =
  let p = Platform.of_powers [ 1.0; 2.0; 3.0 ] in
  Alcotest.(check (list int)) "subset order" [ 2; 0 ]
    (List.map Node.id (Platform.subset p [ 2; 0 ]));
  Alcotest.check_raises "duplicate" (Invalid_argument "Platform.subset: duplicate id 1")
    (fun () -> ignore (Platform.subset p [ 1; 1 ]))

let test_platform_uniform_bandwidth_error () =
  let link = Link.inter_cluster ~default:100.0 [ (("a", "b"), 10.0) ] in
  let nodes =
    [
      Node.make ~id:0 ~name:"x" ~power:1.0 ~cluster:"a" ();
      Node.make ~id:1 ~name:"y" ~power:1.0 ~cluster:"b" ();
    ]
  in
  let p = Platform.create ~link nodes in
  Alcotest.(check (option (float 0.0)))
    "heterogeneous connectivity has no single B" None
    (Link.uniform_bandwidth (Platform.link p))

(* ---------- Generator ---------- *)

let test_generator_homogeneous () =
  let p = Generator.homogeneous ~n:10 ~power:730.0 () in
  Alcotest.(check int) "size" 10 (Platform.size p);
  Alcotest.(check bool) "homogeneous" true (Platform.is_homogeneous_compute p)

let test_generator_uniform () =
  let rng = Rng.create 1 in
  let p =
    Generator.uniform_heterogeneous ~rng ~n:50 ~power_min:100.0 ~power_max:200.0 ()
  in
  List.iter
    (fun n ->
      Alcotest.(check bool) "power in range" true
        (Node.power n >= 100.0 && Node.power n <= 200.0))
    (Platform.nodes p)

let test_generator_deterministic () =
  let gen seed =
    let rng = Rng.create seed in
    List.map Node.power (Platform.nodes (Generator.grid5000_orsay ~rng ~n:30 ()))
  in
  Alcotest.(check (list (float 0.0))) "same seed, same platform" (gen 5) (gen 5);
  Alcotest.(check bool) "different seed differs" true (gen 5 <> gen 6)

let test_generator_background_levels () =
  let rng = Rng.create 2 in
  let p =
    Generator.background_loaded ~rng ~n:400 ~power:100.0 ~load_fraction:0.6
      ~load_levels:4 ()
  in
  let expected = [ 40.0; 60.0; 80.0; 100.0 ] in
  let powers = List.sort_uniq Float.compare (List.map Node.power (Platform.nodes p)) in
  Alcotest.(check int) "four levels" 4 (List.length powers);
  List.iter2 (fun a b -> Alcotest.(check (float 1e-9)) "level value" a b) expected powers

let test_generator_background_validation () =
  let rng = Rng.create 3 in
  Alcotest.check_raises "bad fraction"
    (Invalid_argument "Generator.background_loaded: load_fraction must be in [0, 1)")
    (fun () ->
      ignore
        (Generator.background_loaded ~rng ~n:4 ~power:1.0 ~load_fraction:1.0
           ~load_levels:2 ()))

let test_generator_two_sites () =
  let rng = Rng.create 4 in
  let p = Generator.two_sites ~rng ~n_orsay:5 ~n_lyon:3 ~wan_bandwidth:25.0 () in
  Alcotest.(check int) "size" 8 (Platform.size p);
  Alcotest.(check (float 0.0)) "wan bandwidth" 25.0 (Platform.bandwidth p 0 5);
  Alcotest.(check (float 0.0)) "lan bandwidth" 1000.0 (Platform.bandwidth p 0 1)

(* ---------- Catalog ---------- *)

let test_catalog_roundtrip () =
  let rng = Rng.create 8 in
  let p = Generator.grid5000_orsay ~rng ~n:12 () in
  match Catalog.of_string (Catalog.to_string p) with
  | Error e -> Alcotest.fail e
  | Ok p' ->
      Alcotest.(check int) "size" (Platform.size p) (Platform.size p');
      List.iter2
        (fun a b -> Alcotest.(check bool) "node equal" true (Node.equal a b))
        (Platform.nodes p) (Platform.nodes p');
      Alcotest.(check (option (float 0.0))) "bandwidth"
        (Link.uniform_bandwidth (Platform.link p))
        (Link.uniform_bandwidth (Platform.link p'))

let test_catalog_inter_cluster_roundtrip () =
  let rng = Rng.create 9 in
  let p = Generator.two_sites ~rng ~n_orsay:4 ~n_lyon:4 ~wan_bandwidth:42.0 () in
  match Catalog.of_string (Catalog.to_string p) with
  | Error e -> Alcotest.fail e
  | Ok p' ->
      Alcotest.(check (float 0.0)) "wan preserved" 42.0 (Platform.bandwidth p' 0 4);
      Alcotest.(check (float 0.0)) "lan preserved" 1000.0 (Platform.bandwidth p' 0 1)

let test_catalog_parse_errors () =
  let check_err text =
    match Catalog.of_string text with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail ("should not parse: " ^ text)
  in
  check_err "node name=x power=abc\n";
  check_err "node power=1\n";
  check_err "frobnicate name=x\n";
  check_err "";
  check_err "link homogeneous bandwidth=-5\nnode name=x power=1\n"

let test_catalog_comments_and_blanks () =
  let text = "# a comment\n\nnode name=x power=10 cluster=c\n" in
  match Catalog.of_string text with
  | Error e -> Alcotest.fail e
  | Ok p ->
      Alcotest.(check int) "one node" 1 (Platform.size p);
      Alcotest.(check string) "cluster" "c" (Node.cluster (Platform.node p 0))

let test_catalog_file_io () =
  let p = Generator.homogeneous ~n:3 ~power:10.0 () in
  let path = Filename.temp_file "adept_catalog" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Catalog.save p path;
      match Catalog.load path with
      | Ok p' -> Alcotest.(check int) "roundtrip via file" 3 (Platform.size p')
      | Error e -> Alcotest.fail e)

let test_catalog_load_missing () =
  match Catalog.load "/nonexistent/path/catalog.txt" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "should not load"

(* ---------- properties ---------- *)

let prop_catalog_roundtrip =
  QCheck.Test.make ~count:100 ~name:"catalog round-trips random platforms"
    QCheck.(pair small_int (int_range 1 40))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let p =
        Generator.uniform_heterogeneous ~rng ~n ~power_min:10.0 ~power_max:5000.0 ()
      in
      match Catalog.of_string (Catalog.to_string p) with
      | Error _ -> false
      | Ok p' ->
          Platform.size p = Platform.size p'
          && List.for_all2 Node.equal (Platform.nodes p) (Platform.nodes p'))

let prop_generator_power_positive =
  QCheck.Test.make ~count:100 ~name:"generated powers are positive"
    QCheck.(pair small_int (int_range 1 60))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let p = Generator.grid5000_orsay ~rng ~n () in
      List.for_all (fun node -> Node.power node > 0.0) (Platform.nodes p))

let () =
  Alcotest.run "platform"
    [
      ( "node",
        [
          Alcotest.test_case "accessors" `Quick test_node_accessors;
          Alcotest.test_case "validation" `Quick test_node_validation;
          Alcotest.test_case "with_power" `Quick test_node_with_power;
          Alcotest.test_case "power sort" `Quick test_node_power_sort;
        ] );
      ( "link",
        [
          Alcotest.test_case "homogeneous" `Quick test_link_homogeneous;
          Alcotest.test_case "inter-cluster" `Quick test_link_inter_cluster;
          Alcotest.test_case "validation" `Quick test_link_validation;
        ] );
      ( "platform",
        [
          Alcotest.test_case "of_powers" `Quick test_platform_of_powers;
          Alcotest.test_case "dense ids" `Quick test_platform_dense_ids;
          Alcotest.test_case "duplicate names" `Quick test_platform_duplicate_names;
          Alcotest.test_case "empty" `Quick test_platform_empty;
          Alcotest.test_case "node range" `Quick test_platform_node_range;
          Alcotest.test_case "sorted" `Quick test_platform_sorted;
          Alcotest.test_case "homogeneity check" `Quick test_platform_homogeneous_check;
          Alcotest.test_case "subset" `Quick test_platform_subset;
          Alcotest.test_case "uniform bandwidth error" `Quick
            test_platform_uniform_bandwidth_error;
        ] );
      ( "generator",
        [
          Alcotest.test_case "homogeneous" `Quick test_generator_homogeneous;
          Alcotest.test_case "uniform range" `Quick test_generator_uniform;
          Alcotest.test_case "deterministic" `Quick test_generator_deterministic;
          Alcotest.test_case "background levels" `Quick test_generator_background_levels;
          Alcotest.test_case "background validation" `Quick
            test_generator_background_validation;
          Alcotest.test_case "two sites" `Quick test_generator_two_sites;
        ] );
      ( "catalog",
        [
          Alcotest.test_case "roundtrip" `Quick test_catalog_roundtrip;
          Alcotest.test_case "inter-cluster roundtrip" `Quick
            test_catalog_inter_cluster_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_catalog_parse_errors;
          Alcotest.test_case "comments and blanks" `Quick test_catalog_comments_and_blanks;
          Alcotest.test_case "file io" `Quick test_catalog_file_io;
          Alcotest.test_case "missing file" `Quick test_catalog_load_missing;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_catalog_roundtrip; prop_generator_power_positive ] );
    ]
