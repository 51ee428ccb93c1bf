(* Tests for the Section 6.4 continual-optimization machinery: the drifting
   metric, distance re-measurement, the four heuristics, and the
   Observation-1 multi-root retry they interact with. *)

open Tapestry

let build_on_drift ?(n = 100) ?(seed = 91) () =
  let rng = Simnet.Rng.create seed in
  let drift = Simnet.Drift.create ~n ~rng in
  let metric = Simnet.Drift.metric drift in
  let addrs = List.init n (fun i -> i) in
  let net, _ = Insert.build_incremental ~seed:(seed + 1) Config.default metric ~addrs in
  (net, drift, rng)

let p2_quality net =
  let total = ref 0 and optimal = ref 0 in
  Verify.check_property2 net ~total ~optimal;
  float_of_int !optimal /. float_of_int (max 1 !total)

(* --- drift --- *)

let test_drift_changes_distances () =
  let rng = Simnet.Rng.create 1 in
  let d = Simnet.Drift.create ~n:50 ~rng in
  let m = Simnet.Drift.metric d in
  let before = Simnet.Metric.dist m 3 17 in
  Simnet.Drift.advance d ~rng ~magnitude:0.1;
  let after = Simnet.Metric.dist m 3 17 in
  Alcotest.(check bool) "distance moved" true (abs_float (before -. after) > 1e-9)

let test_drift_stays_metric () =
  let rng = Simnet.Rng.create 2 in
  let d = Simnet.Drift.create ~n:40 ~rng in
  Simnet.Drift.advance d ~rng ~magnitude:0.3;
  let m = Simnet.Drift.metric d in
  for i = 0 to 39 do
    for j = 0 to 39 do
      for k = 0 to 39 do
        if Simnet.Metric.dist m i j > Simnet.Metric.dist m i k +. Simnet.Metric.dist m k j +. 1e-9
        then Alcotest.fail "drifted space must stay metric"
      done
    done
  done

let test_drift_snapshot_frozen () =
  let rng = Simnet.Rng.create 3 in
  let d = Simnet.Drift.create ~n:30 ~rng in
  let snap = Simnet.Drift.snapshot d in
  let live = Simnet.Drift.metric d in
  let before = Simnet.Metric.dist snap 1 2 in
  Simnet.Drift.advance d ~rng ~magnitude:0.2;
  Alcotest.(check (float 1e-12)) "snapshot unchanged" before (Simnet.Metric.dist snap 1 2);
  Alcotest.(check bool) "live moved" true
    (abs_float (Simnet.Metric.dist live 1 2 -. before) > 1e-9)

(* --- update_distances --- *)

let test_update_distances_resorts () =
  let cfg = { Config.default with Config.id_digits = 4; redundancy = 3 } in
  let owner = Node_id.of_string ~base:16 "a000" in
  let t = Routing_table.create cfg ~owner in
  let c1 = Node_id.of_string ~base:16 "ab11" in
  let c2 = Node_id.of_string ~base:16 "ab22" in
  Routing_table.set_owner_handle t { Routing_table.ids = [| owner; c1; c2 |] } 0;
  ignore (Routing_table.consider t ~level:1 ~candidate:c1 ~handle:1 ~dist:1.0);
  ignore (Routing_table.consider t ~level:1 ~candidate:c2 ~handle:2 ~dist:2.0);
  (* distances flip: c2 is now closer *)
  let measure h = if h = 1 then Some 5.0 else Some 0.5 in
  let changed = Routing_table.update_distances t ~measure in
  Alcotest.(check int) "one primary changed" 1 changed;
  match Routing_table.primary t ~level:1 ~digit:0xb with
  | Some e -> Alcotest.(check bool) "c2 promoted" true (Node_id.equal e.Routing_table.id c2)
  | None -> Alcotest.fail "slot emptied"

let test_update_distances_drops_unmeasurable () =
  let cfg = { Config.default with Config.id_digits = 4; redundancy = 3 } in
  let owner = Node_id.of_string ~base:16 "a000" in
  let t = Routing_table.create cfg ~owner in
  let c1 = Node_id.of_string ~base:16 "ab11" in
  ignore (Routing_table.consider t ~level:1 ~candidate:c1 ~handle:1 ~dist:1.0);
  ignore (Routing_table.update_distances t ~measure:(fun _ -> None));
  Alcotest.(check bool) "entry dropped" true (Routing_table.is_hole t ~level:1 ~digit:0xb)

(* --- optimizer heuristics --- *)

let test_drift_degrades_then_rotate_recovers () =
  let net, drift, rng = build_on_drift () in
  let fresh = p2_quality net in
  Alcotest.(check bool) "fresh quality high" true (fresh > 0.85);
  Simnet.Drift.advance drift ~rng ~magnitude:0.25;
  let degraded = p2_quality net in
  Alcotest.(check bool)
    (Printf.sprintf "drift degrades (%.2f -> %.2f)" fresh degraded)
    true
    (degraded < fresh -. 0.15);
  let stats = Optimizer.rotate_primaries net in
  let recovered = p2_quality net in
  Alcotest.(check bool)
    (Printf.sprintf "rotation recovers (%.2f -> %.2f)" degraded recovered)
    true
    (recovered > degraded +. 0.1);
  Alcotest.(check bool) "rotation cost is nonzero" true
    (stats.Optimizer.cost.Simnet.Cost.messages > 0)

let test_share_tables_restores_quality () =
  let net, drift, rng = build_on_drift ~seed:95 () in
  Simnet.Drift.advance drift ~rng ~magnitude:0.25;
  ignore (Optimizer.share_tables net);
  let q = p2_quality net in
  Alcotest.(check bool) (Printf.sprintf "gossip quality %.3f > 0.95" q) true (q > 0.95);
  Alcotest.(check int) "consistency kept" 0 (List.length (Verify.check_property1 net))

let test_full_rebuild_restores_quality () =
  let net, drift, rng = build_on_drift ~seed:97 () in
  Simnet.Drift.advance drift ~rng ~magnitude:0.25;
  ignore (Optimizer.full_rebuild net);
  let q = p2_quality net in
  Alcotest.(check bool) (Printf.sprintf "rebuild quality %.3f > 0.9" q) true (q > 0.9);
  Alcotest.(check int) "consistency kept" 0 (List.length (Verify.check_property1 net))

let test_rebuild_level_targets_one_level () =
  let net, drift, rng = build_on_drift ~seed:99 () in
  Simnet.Drift.advance drift ~rng ~magnitude:0.25;
  let s = Optimizer.rebuild_level net ~level:0 in
  Alcotest.(check bool) "touches every core node" true
    (s.Optimizer.nodes_touched = List.length (Network.core_nodes net));
  Alcotest.(check int) "consistency kept" 0 (List.length (Verify.check_property1 net))

let test_optimizers_preserve_property4 () =
  let net, drift, rng = build_on_drift ~seed:101 () in
  (* publish, drift, rotate: pointer paths must follow the new routes *)
  let guids =
    List.init 15 (fun _ ->
        let server = Network.random_alive net in
        let guid = Node_id.random ~base:16 ~len:8 net.Network.rng in
        ignore (Publish.publish net ~server guid);
        guid)
  in
  Simnet.Drift.advance drift ~rng ~magnitude:0.25;
  ignore (Optimizer.rotate_primaries net);
  Alcotest.(check int) "Property 4 after rotation" 0
    (List.length (Verify.check_property4 net));
  List.iter
    (fun guid ->
      Alcotest.(check bool) "still locatable" true
        (Verify.reachable_everywhere net guid))
    guids

(* --- Observation 1: multi-root retry --- *)

let test_multi_root_retry_survives_root_failure () =
  let cfg = { Config.default with Config.root_set_size = 3 } in
  let rng = Simnet.Rng.create 103 in
  let metric = Simnet.Topology.generate Simnet.Topology.Uniform_square ~n:120 ~rng in
  let addrs = List.init 120 (fun i -> i) in
  let net, _ = Insert.build_incremental ~seed:104 cfg metric ~addrs in
  let server = Network.random_alive net in
  let guid = Node_id.random ~base:16 ~len:8 net.Network.rng in
  ignore (Publish.publish net ~server guid);
  (* kill root 0 and every node holding its pointer records for root 0,
     keeping the server itself *)
  let salted0 = guid in
  let info = Route.route_to_root net ~from:server salted0 in
  List.iter
    (fun (hop : Node.t) ->
      if not (Node_id.equal hop.Node.id server.Node.id) then Delete.fail net hop)
    info.Route.path;
  (* single-root locate at root 0 now fails from some clients, but the
     retried locate over the root set still succeeds everywhere *)
  let ok = ref 0 and total = ref 0 in
  List.iter
    (fun client ->
      incr total;
      if (Locate.locate net ~client guid).Locate.server <> None then incr ok)
    (Network.alive_nodes net);
  Alcotest.(check int)
    (Printf.sprintf "all %d clients succeed via retries" !total)
    !total !ok

let () =
  Alcotest.run "optimizer"
    [
      ( "drift",
        [
          Alcotest.test_case "distances change" `Quick test_drift_changes_distances;
          Alcotest.test_case "stays a metric" `Quick test_drift_stays_metric;
          Alcotest.test_case "snapshot frozen" `Quick test_drift_snapshot_frozen;
        ] );
      ( "update_distances",
        [
          Alcotest.test_case "resorts slots" `Quick test_update_distances_resorts;
          Alcotest.test_case "drops unmeasurable" `Quick test_update_distances_drops_unmeasurable;
        ] );
      ( "heuristics",
        [
          Alcotest.test_case "rotate recovers" `Quick test_drift_degrades_then_rotate_recovers;
          Alcotest.test_case "gossip restores" `Quick test_share_tables_restores_quality;
          Alcotest.test_case "full rebuild restores" `Quick test_full_rebuild_restores_quality;
          Alcotest.test_case "level rebuild" `Quick test_rebuild_level_targets_one_level;
          Alcotest.test_case "property 4 preserved" `Quick test_optimizers_preserve_property4;
        ] );
      ( "multi-root",
        [
          Alcotest.test_case "retry survives root failure" `Quick
            test_multi_root_retry_survives_root_failure;
        ] );
    ]
