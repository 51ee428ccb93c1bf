(* System-level tests: non-default configurations (digit radix, ID length,
   redundancy, multi-root), adaptive joins, the full-text experiment harness
   in quick mode, and odds and ends that cross module boundaries. *)

open Tapestry

let build_with cfg ?(n = 80) ?(seed = 201) ?(kind = Simnet.Topology.Uniform_square) () =
  let rng = Simnet.Rng.create seed in
  let metric = Simnet.Topology.generate kind ~n ~rng in
  let addrs = List.init n (fun i -> i) in
  Insert.build_incremental ~seed:(seed + 1) cfg metric ~addrs

let exercise net =
  (* consistency + publish/locate + delete, in one sweep *)
  Alcotest.(check int) "P1" 0 (List.length (Verify.check_property1 net));
  let cfg = net.Network.config in
  let guids =
    List.init 10 (fun _ ->
        let server = Network.random_alive net in
        let guid =
          Node_id.random ~base:cfg.Config.base ~len:cfg.Config.id_digits
            net.Network.rng
        in
        ignore (Publish.publish net ~server guid);
        guid)
  in
  List.iter
    (fun guid ->
      Alcotest.(check bool) "locatable" true (Verify.reachable_everywhere net guid))
    guids;
  Alcotest.(check int) "P4" 0 (List.length (Verify.check_property4 net));
  (* one voluntary delete of a non-server *)
  let victim =
    Network.alive_nodes net
    |> List.find (fun (v : Node.t) -> Node_id.Tbl.length v.Node.replicas = 0)
  in
  ignore (Delete.voluntary net victim);
  Alcotest.(check int) "P1 after delete" 0 (List.length (Verify.check_property1 net))

let test_base4 () =
  (* base 4: long IDs, deep tables *)
  let cfg = { Config.default with Config.base = 4; id_digits = 16 } in
  let net, _ = build_with cfg () in
  exercise net

let test_base32 () =
  let cfg = { Config.default with Config.base = 32; id_digits = 6 } in
  let net, _ = build_with cfg () in
  exercise net

let test_short_ids () =
  (* 4-digit IDs: collisions in the namespace become plausible; fresh_id must
     avoid them and routing still resolves *)
  let cfg = { Config.default with Config.id_digits = 4 } in
  let net, _ = build_with cfg () in
  exercise net

let test_redundancy_one () =
  (* R = 1: no secondaries anywhere; everything must still hold statically *)
  let cfg = { Config.default with Config.redundancy = 1 } in
  let net, _ = build_with cfg () in
  exercise net

let test_multi_root_config () =
  let cfg = { Config.default with Config.root_set_size = 2 } in
  let net, _ = build_with cfg () in
  exercise net

let test_adaptive_joins () =
  let rng = Simnet.Rng.create 211 in
  let metric = Simnet.Topology.generate Simnet.Topology.Clustered ~n:100 ~rng in
  let addrs = List.init 90 (fun i -> i) in
  let net, _ = Insert.build_incremental ~seed:212 Config.default metric ~addrs in
  for i = 0 to 9 do
    let gw = Network.random_alive net in
    let r = Insert.insert ~adaptive:true net ~gateway:gw ~addr:(90 + i) in
    Alcotest.(check bool) "active" true (r.Insert.node.Node.status = Node.Active)
  done;
  Alcotest.(check int) "P1 after adaptive joins" 0
    (List.length (Verify.check_property1 net))

let test_bootstrap_pair () =
  (* the smallest dynamic network: one bootstrap + one join *)
  let cfg = Config.default in
  let rng = Simnet.Rng.create 221 in
  let metric = Simnet.Topology.generate Simnet.Topology.Uniform_square ~n:2 ~rng in
  let net, reports = Insert.build_incremental ~seed:222 cfg metric ~addrs:[ 0; 1 ] in
  Alcotest.(check int) "two nodes" 2 (Network.node_count net);
  Alcotest.(check int) "one report" 1 (List.length reports);
  let a = Network.random_alive net in
  let guid = Node_id.random ~base:16 ~len:8 net.Network.rng in
  ignore (Publish.publish net ~server:a guid);
  Alcotest.(check bool) "locatable from both" true (Verify.reachable_everywhere net guid);
  (* both nodes know each other at level 0 *)
  List.iter
    (fun (x : Node.t) ->
      Alcotest.(check bool) "has a neighbor" true
        (Routing_table.entry_count x.Node.table >= 1))
    (Network.alive_nodes net)

let test_empty_and_singleton () =
  let cfg = Config.default in
  let rng = Simnet.Rng.create 231 in
  let metric = Simnet.Topology.generate Simnet.Topology.Uniform_square ~n:1 ~rng in
  let net, _ = Insert.build_incremental ~seed:232 cfg metric ~addrs:[ 0 ] in
  let solo = Network.random_alive net in
  (* a singleton is its own root for everything *)
  let guid = Node_id.random ~base:16 ~len:8 net.Network.rng in
  let info = Route.route_to_root net ~from:solo guid in
  Alcotest.(check bool) "self root" true (Node_id.equal info.Route.root.Node.id solo.Node.id);
  ignore (Publish.publish net ~server:solo guid);
  Alcotest.(check bool) "self locate" true
    ((Locate.locate net ~client:solo guid).Locate.server <> None)

let test_locality_pointer_namespace () =
  (* local-branch records live under the reserved root index and never
     collide with wide-area records *)
  let rng = Simnet.Rng.create 241 in
  let ts = Simnet.Transit_stub.generate Simnet.Transit_stub.default_params ~rng in
  let metric = Simnet.Transit_stub.metric ts in
  let hosts = Simnet.Transit_stub.hosts ts in
  let net = Static_build.build ~seed:242 Config.default metric ~addrs:hosts in
  let same_stub = Simnet.Transit_stub.same_stub ts in
  let server = Network.random_alive net in
  let guid = Node_id.random ~base:16 ~len:8 net.Network.rng in
  Locality.publish net ~same_stub ~server guid;
  (* server itself holds both the root_idx 0 record and the local one *)
  Alcotest.(check bool) "wide-area record" true
    (Pointer_store.find server.Node.pointers ~guid ~server:server.Node.handle ~root_idx:0
    >= 0);
  Alcotest.(check bool) "local record" true
    (Pointer_store.find server.Node.pointers ~guid ~server:server.Node.handle
       ~root_idx:Locality.local_root_idx
    >= 0)

(* --- harness smoke: every experiment runs in quick mode --- *)

let test_experiments_produce_tables () =
  List.iter
    (fun name ->
      match name with
      | "table1" | "stretch" | "insert_scaling" | "availability"
      | "nn_vs_kr" | "continual_optimization" | "redundancy" ->
          () (* heavyweight even in quick mode; covered by bench runs *)
      | name ->
          let tables = Evaluation.Experiment.by_name Evaluation.Experiment.Quick name in
          Alcotest.(check bool) (name ^ " yields tables") true
            (match tables with [] -> false | _ :: _ -> true);
          List.iter
            (fun t ->
              Alcotest.(check bool)
                (name ^ " table renders")
                true
                (String.length (Simnet.Stats.Table.render t) > 0))
            tables)
    Evaluation.Experiment.names

(* E8 and E16 place their events on a virtual timeline; their rendered
   tables are pinned in both modes, so a change to the event order (or
   to the join stages and soft-state sweeps they interleave) shows here. *)
let tables_md5 tables =
  Digest.to_hex
    (Digest.string (String.concat "" (List.map Simnet.Stats.Table.render tables)))

let test_timeline_tables_pinned () =
  let module E = Evaluation.Experiment in
  List.iter
    (fun (label, tables, expect) ->
      Alcotest.(check string) label expect (tables_md5 tables))
    [
      ("E8 quick", E.concurrent_insert E.Quick, "3ed10f50f489cce14cb27c0951b0e54c");
      ("E8 full", E.concurrent_insert E.Full, "f277b490f3b4496bd30992db3208b161");
      ("E16 quick", E.async_recovery E.Quick, "eeeb930bf00b0c3b9e1b03f12064f1a2");
      ("E16 full", E.async_recovery E.Full, "60a7b5d6bfa1f21537cc180f5981a881");
    ]

(* The quick tables of the experiments that run [Locate], [Locality] or
   [Verify.availability] (E1 table1, E2 stretch, E7 availability, E10
   stub_locality, E12 table_quality, E15 redundancy), pinned so that a
   rewrite of the sync locate path that claims unchanged behaviour is
   checked here. *)
let test_locate_tables_pinned () =
  let module E = Evaluation.Experiment in
  List.iter
    (fun (label, tables, expect) ->
      Alcotest.(check string) label expect (tables_md5 tables))
    [
      ("E1 quick", E.table1 E.Quick, "121e78cb57120121d82edae8b2627ab6");
      ("E2 quick", E.stretch E.Quick, "b8b78e648ede60a84559fdce4bc3fca8");
      ("E7 quick", E.availability E.Quick, "8a785fa652a2128e2ab4e44246b18d3b");
      ("E10 quick", E.stub_locality E.Quick, "1ad5535f680bd7d8526c818aed8354a6");
      ("E12 quick", E.table_quality E.Quick, "e52ed0de65765cfc8b8d8eafffc422c5");
      ("E15 quick", E.redundancy E.Quick, "09fa0bce2122170328892dfbaf342707");
    ]

(* E16's first bucket holds only the probes before the kill at t=10:
   every object is still reachable there. *)
let test_recovery_first_bucket () =
  let module E = Evaluation.Experiment in
  List.iter
    (fun mode ->
      let csv =
        String.concat "" (List.map Simnet.Stats.Table.to_csv (E.async_recovery mode))
      in
      let row =
        List.find_opt
          (String.starts_with ~prefix:"\"[0, 10)\",")
          (String.split_on_char '\n' csv)
      in
      Alcotest.(check (option string)) "[0, 10) availability"
        (Some "\"[0, 10)\",1.0000,-") row)
    [ E.Quick; E.Full ]

let test_experiment_unknown_name () =
  Alcotest.check_raises "unknown experiment"
    (Invalid_argument "Experiment.by_name: unknown experiment nope") (fun () ->
      ignore (Evaluation.Experiment.by_name Evaluation.Experiment.Quick "nope"))

let () =
  Alcotest.run "system"
    [
      ( "config variants",
        [
          Alcotest.test_case "base 4" `Quick test_base4;
          Alcotest.test_case "base 32" `Quick test_base32;
          Alcotest.test_case "short ids" `Quick test_short_ids;
          Alcotest.test_case "R = 1" `Quick test_redundancy_one;
          Alcotest.test_case "two roots" `Quick test_multi_root_config;
        ] );
      ( "degenerate networks",
        [
          Alcotest.test_case "bootstrap pair" `Quick test_bootstrap_pair;
          Alcotest.test_case "singleton" `Quick test_empty_and_singleton;
        ] );
      ( "features",
        [
          Alcotest.test_case "adaptive joins" `Quick test_adaptive_joins;
          Alcotest.test_case "locality namespaces" `Quick test_locality_pointer_namespace;
        ] );
      ( "experiment harness",
        [
          Alcotest.test_case "quick tables render" `Quick test_experiments_produce_tables;
          Alcotest.test_case "E8/E16 tables pinned" `Quick test_timeline_tables_pinned;
          Alcotest.test_case "locate tables pinned" `Quick test_locate_tables_pinned;
          Alcotest.test_case "E16 availability before the kill" `Quick
            test_recovery_first_bucket;
          Alcotest.test_case "unknown name" `Quick test_experiment_unknown_name;
        ] );
    ]
