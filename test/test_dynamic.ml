(* Tests for dynamic membership: the nearest-neighbor join (Section 3),
   insertion (Section 4) and deletion (Section 5). *)

open Tapestry

let build_dynamic ?(n = 120) ?(seed = 21) ?(cfg = Config.default)
    ?(kind = Simnet.Topology.Uniform_square) ?(extra = 0) () =
  let rng = Simnet.Rng.create seed in
  let metric = Simnet.Topology.generate kind ~n:(n + extra) ~rng in
  let addrs = List.init n (fun i -> i) in
  Insert.build_incremental ~seed:(seed + 1) cfg metric ~addrs

let random_guid net =
  let cfg = net.Network.config in
  Node_id.random ~base:cfg.Config.base ~len:cfg.Config.id_digits net.Network.rng

(* --- incremental construction --- *)

let test_incremental_property1 () =
  let net, _ = build_dynamic ~n:150 () in
  Alcotest.(check int) "P1 after 150 joins" 0
    (List.length (Verify.check_property1 net))

let test_incremental_property2_quality () =
  let net, _ = build_dynamic ~n:150 () in
  let total = ref 0 and optimal = ref 0 in
  Verify.check_property2 net ~total ~optimal;
  let ratio = float_of_int !optimal /. float_of_int (max 1 !total) in
  Alcotest.(check bool)
    (Printf.sprintf "locality quality %.3f > 0.85" ratio)
    true (ratio > 0.85)

let test_incremental_nearest_neighbors () =
  let net, _ = build_dynamic ~n:150 () in
  let ok = ref 0 and total = ref 0 in
  List.iter
    (fun (node : Node.t) ->
      incr total;
      match
        ( Nearest_neighbor.nearest_neighbor net ~from:node,
          Verify.true_nearest_neighbor net node )
      with
      | Some a, Some b when Node_id.equal a.Node.id b.Node.id -> incr ok
      | _ -> ())
    (Network.alive_nodes net);
  Alcotest.(check bool)
    (Printf.sprintf "NN exact for %d/%d" !ok !total)
    true
    (float_of_int !ok /. float_of_int !total > 0.95)

let test_incremental_all_active () =
  let net, reports = build_dynamic ~n:80 () in
  Alcotest.(check int) "all nodes alive" 80 (List.length (Network.alive_nodes net));
  List.iter
    (fun (r : Insert.report) ->
      Alcotest.(check bool) "active after join" true (r.Insert.node.Node.status = Node.Active))
    reports

let test_insert_cost_reasonable () =
  let net, reports = build_dynamic ~n:200 () in
  ignore net;
  let late =
    List.filteri (fun i _ -> i >= 100) reports
    |> List.map (fun (r : Insert.report) -> float_of_int r.Insert.cost.Simnet.Cost.messages)
  in
  let mean = Simnet.Stats.mean late in
  (* O(k log n) messages; with k=28 and 8 digit levels this stays well under
     the naive O(n) flood *)
  Alcotest.(check bool) (Printf.sprintf "mean %.0f < 150" mean) true (mean < 150.)

let test_insert_duplicate_id_rejected () =
  let net, _ = build_dynamic ~n:20 ~extra:1 () in
  let existing = Network.random_alive net in
  let gw = Network.random_alive net in
  Alcotest.check_raises "duplicate id"
    (Invalid_argument "Network.register: duplicate node id") (fun () ->
      ignore (Insert.insert ~id:existing.Node.id net ~gateway:gw ~addr:20))

let test_insert_transfers_root_pointers () =
  (* After a join, the surrogate roots must still answer for objects whose
     root moved to the new node: availability from everywhere. *)
  let net, _ = build_dynamic ~n:100 ~extra:30 () in
  let guids =
    List.init 25 (fun _ ->
        let server = Network.random_alive net in
        let guid = random_guid net in
        ignore (Publish.publish net ~server guid);
        guid)
  in
  for i = 0 to 29 do
    let gw = Network.random_alive net in
    ignore (Insert.insert net ~gateway:gw ~addr:(100 + i))
  done;
  List.iter
    (fun guid ->
      Alcotest.(check bool) "available after joins" true
        (Verify.reachable_everywhere net guid))
    guids;
  Alcotest.(check bool) "roots still unique" true
    (List.for_all (fun g -> Verify.roots_agree net g ~samples:10) guids)

let test_join_via_any_gateway_same_root () =
  (* the surrogate is a function of the ID set, not of the gateway *)
  let net, _ = build_dynamic ~n:100 ~extra:2 () in
  let id = Network.fresh_id net in
  let surrogate_oracle = Verify.surrogate_oracle net (Verify.core net) id in
  let gw = Network.random_alive net in
  let r = Insert.insert ~id net ~gateway:gw ~addr:100 in
  Alcotest.(check bool) "surrogate is the oracle root" true
    (Node_id.equal r.Insert.surrogate.Node.id surrogate_oracle.Node.id)

(* --- Lemma 1 descent --- *)

let test_get_next_list_matches_oracle () =
  let net, _ = build_dynamic ~n:200 ~extra:1 () in
  let cfg = net.Network.config in
  let probe = Node.create cfg ~id:(Network.fresh_id net) ~addr:200 in
  let alive = Network.alive_nodes net in
  let k = 24 in
  let oracle_list level =
    alive
    |> List.filter (fun (m : Node.t) ->
           Node_id.common_prefix_len m.Node.id probe.Node.id >= level)
    |> List.map (fun m -> (Network.dist net probe m, m))
    |> List.sort (fun (d1, _) (d2, _) -> Float.compare d1 d2)
    |> List.filteri (fun i _ -> i < k)
    |> List.map snd
  in
  let surrogate = Verify.surrogate_oracle net (Verify.core net) probe.Node.id in
  let max_level = Node_id.common_prefix_len probe.Node.id surrogate.Node.id in
  let current = ref (oracle_list max_level) in
  for level = max_level - 1 downto 0 do
    let next =
      Nearest_neighbor.get_next_list ~update_tables:false net ~new_node:probe
        ~level !current ~k
    in
    let oracle = oracle_list level in
    Alcotest.(check int)
      (Printf.sprintf "list size at level %d" level)
      (List.length oracle) (List.length next);
    List.iter2
      (fun (a : Node.t) (b : Node.t) ->
        if not (Node_id.equal a.Node.id b.Node.id) then
          Alcotest.failf "level %d list diverges from the k closest" level)
      next oracle;
    current := next
  done

(* --- deletion --- *)

let test_voluntary_delete_keeps_invariants () =
  let net, _ = build_dynamic ~n:120 () in
  let guids =
    List.init 20 (fun _ ->
        let server = Network.random_alive net in
        let guid = random_guid net in
        ignore (Publish.publish net ~server guid);
        guid)
  in
  (* delete a third of the nodes, never a server *)
  let servers =
    List.fold_left
      (fun acc g ->
        List.fold_left
          (fun acc (n : Node.t) -> Node_id.Set.add n.Node.id acc)
          acc
          (List.filter_map
             (fun (n : Node.t) -> if Node.stores_replica n g then Some n else None)
             (Network.alive_nodes net)))
      Node_id.Set.empty guids
  in
  let victims =
    Network.alive_nodes net
    |> List.filter (fun (v : Node.t) -> not (Node_id.Set.mem v.Node.id servers))
    |> List.filteri (fun i _ -> i < 40)
  in
  List.iter (fun v -> ignore (Delete.voluntary net v)) victims;
  Alcotest.(check int) "P1 after deletes" 0 (List.length (Verify.check_property1 net));
  List.iter
    (fun guid ->
      Alcotest.(check bool) "objects survive deletes" true
        (Verify.reachable_everywhere net guid))
    guids

let test_voluntary_delete_cleans_links () =
  let net, _ = build_dynamic ~n:80 () in
  let victim = Network.random_alive net in
  ignore (Delete.voluntary net victim);
  (* no alive node still points at the departed one *)
  List.iter
    (fun (n : Node.t) ->
      Routing_table.iter_entries n.Node.table (fun ~level:_ ~digit:_ e ->
          if Node_id.equal e.Routing_table.id victim.Node.id then
            Alcotest.failf "%s still links to departed node" (Node_id.to_string n.Node.id)))
    (Network.alive_nodes net)

let test_voluntary_delete_reroots_objects () =
  let net, _ = build_dynamic ~n:100 () in
  (* find an object whose root is NOT its server, then delete the root *)
  let rec attempt tries =
    if tries = 0 then Alcotest.fail "could not find a removable root"
    else begin
      let server = Network.random_alive net in
      let guid = random_guid net in
      let outcome = Publish.publish net ~server guid in
      let root = List.hd outcome.Publish.roots in
      if Node_id.equal root.Node.id server.Node.id then attempt (tries - 1)
      else (server, guid, root)
    end
  in
  let _, guid, root = attempt 20 in
  ignore (Delete.voluntary net root);
  Alcotest.(check bool) "available after root departure" true
    (Verify.reachable_everywhere net guid)

let test_involuntary_lazy_repair () =
  let net, _ = build_dynamic ~n:120 () in
  let server = Network.random_alive net in
  let guid = random_guid net in
  ignore (Publish.publish net ~server guid);
  (* kill a handful of non-server nodes silently *)
  let victims =
    Network.alive_nodes net
    |> List.filter (fun (v : Node.t) -> not (Node_id.equal v.Node.id server.Node.id))
    |> List.filteri (fun i _ -> i < 12)
  in
  List.iter (fun v -> Delete.fail net v) victims;
  (* routes with the repairing handler keep working *)
  for _ = 1 to 60 do
    let from = Network.random_alive net in
    let info =
      Route.route_to_root ~on_dead:Delete.on_dead_repair net ~from guid
    in
    Alcotest.(check bool) "route ends at an alive node" true
      (Node.is_alive info.Route.root)
  done;
  (* republish restores full availability *)
  ignore (Maintenance.republish_all net);
  Alcotest.(check bool) "available after repair + republish" true
    (Verify.reachable_everywhere net guid)

let test_repair_hole_certifies_absence () =
  let net, _ = build_dynamic ~n:40 () in
  let node = Network.random_alive net in
  (* find a genuine hole (a digit with no matching node anywhere) *)
  let holes = Routing_table.holes node.Node.table in
  let core = Verify.core net in
  match
    List.find_opt
      (fun (level, digit) ->
        Option.is_none (Verify.extension core node.Node.id ~level ~digit))
      holes
  with
  | Some (level, digit) ->
      Alcotest.(check bool) "repair returns false on a genuine hole" false
        (Delete.repair_hole net ~owner:node ~level ~digit)
  | None -> () (* dense table: nothing to certify *)

let test_repair_all_holes_after_failures () =
  let net, _ = build_dynamic ~n:120 () in
  let victims =
    Network.alive_nodes net |> List.filteri (fun i _ -> i mod 7 = 0)
  in
  List.iter (fun v -> Delete.fail net v) victims;
  ignore (Delete.repair_all_holes net);
  Alcotest.(check int) "P1 restored by anti-entropy" 0
    (List.length (Verify.check_property1 net))

let test_delete_last_but_one_node () =
  (* shrink a tiny network down to one node *)
  let net, _ = build_dynamic ~n:4 () in
  let rec shrink () =
    match Network.alive_nodes net with
    | [ _ ] | [] -> ()
    | v :: _ ->
        ignore (Delete.voluntary net v);
        shrink ()
  in
  shrink ();
  Alcotest.(check int) "one survivor" 1 (List.length (Network.alive_nodes net));
  let survivor = Network.random_alive net in
  (* the survivor is its own root for everything *)
  let info = Route.route_to_root net ~from:survivor (random_guid net) in
  Alcotest.(check bool) "self root" true
    (Node_id.equal info.Route.root.Node.id survivor.Node.id)

(* --- maintenance tick --- *)

let test_tick_republishes_on_interval () =
  let net, _ = build_dynamic ~n:60 () in
  let server = Network.random_alive net in
  let guid = random_guid net in
  ignore (Publish.publish net ~server guid);
  (* run many small ticks across several republish intervals: the object
     must stay continuously available despite TTL expiry *)
  for _ = 1 to 50 do
    Maintenance.tick net ~dt:(Config.default.Config.republish_interval /. 4.);
    let client = Network.random_alive net in
    Alcotest.(check bool) "continuously available" true
      ((Locate.locate net ~client guid).Locate.server <> None)
  done

let () =
  Alcotest.run "dynamic"
    [
      ( "incremental build",
        [
          Alcotest.test_case "property 1" `Quick test_incremental_property1;
          Alcotest.test_case "property 2 quality" `Quick test_incremental_property2_quality;
          Alcotest.test_case "nearest neighbors" `Quick test_incremental_nearest_neighbors;
          Alcotest.test_case "all active" `Quick test_incremental_all_active;
          Alcotest.test_case "insert cost" `Quick test_insert_cost_reasonable;
          Alcotest.test_case "duplicate id" `Quick test_insert_duplicate_id_rejected;
        ] );
      ( "insertion semantics",
        [
          Alcotest.test_case "root pointer transfer" `Quick test_insert_transfers_root_pointers;
          Alcotest.test_case "gateway independence" `Quick test_join_via_any_gateway_same_root;
          Alcotest.test_case "Lemma 1 descent" `Quick test_get_next_list_matches_oracle;
        ] );
      ( "deletion",
        [
          Alcotest.test_case "voluntary keeps invariants" `Quick test_voluntary_delete_keeps_invariants;
          Alcotest.test_case "voluntary cleans links" `Quick test_voluntary_delete_cleans_links;
          Alcotest.test_case "voluntary re-roots objects" `Quick test_voluntary_delete_reroots_objects;
          Alcotest.test_case "involuntary lazy repair" `Quick test_involuntary_lazy_repair;
          Alcotest.test_case "hole absence certified" `Quick test_repair_hole_certifies_absence;
          Alcotest.test_case "anti-entropy sweep" `Quick test_repair_all_holes_after_failures;
          Alcotest.test_case "shrink to one node" `Quick test_delete_last_but_one_node;
        ] );
      ( "maintenance",
        [ Alcotest.test_case "tick republish" `Quick test_tick_republishes_on_interval ] );
    ]
