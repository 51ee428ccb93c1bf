(* Integration tests for the static protocol layer: routing, surrogates,
   multicast, publish/locate, pointer maintenance and stub locality. *)

open Tapestry

let build ?(n = 120) ?(seed = 11) ?(cfg = Config.default) ?(kind = Simnet.Topology.Uniform_square) () =
  let rng = Simnet.Rng.create seed in
  let metric = Simnet.Topology.generate kind ~n ~rng in
  let addrs = List.init n (fun i -> i) in
  Static_build.build ~seed:(seed + 1) cfg metric ~addrs

let random_guid net =
  let cfg = net.Network.config in
  Node_id.random ~base:cfg.Config.base ~len:cfg.Config.id_digits net.Network.rng

(* --- static build sanity --- *)

let test_static_build_properties () =
  let net = build () in
  Alcotest.(check int) "P1 clean" 0 (List.length (Verify.check_property1 net));
  let total = ref 0 and optimal = ref 0 in
  Verify.check_property2 net ~total ~optimal;
  Alcotest.(check int) "P2 exact (oracle build)" !total !optimal

let test_static_build_backpointer_symmetry () =
  let net = build ~n:60 () in
  (* every forward entry has a matching backpointer *)
  List.iter
    (fun (a : Node.t) ->
      Routing_table.iter_entries a.Node.table (fun ~level ~digit:_ e ->
          if not (Node_id.equal e.Routing_table.id a.Node.id) then begin
            let b = Network.find_exn net e.Routing_table.id in
            let bps = Routing_table.backpointers b.Node.table ~level in
            if not (List.exists (Node_id.equal a.Node.id) bps) then
              Alcotest.failf "missing backpointer %s -> %s at level %d"
                (Node_id.to_string b.Node.id) (Node_id.to_string a.Node.id) level
          end))
    (Network.alive_nodes net)

(* --- routing --- *)

let test_route_to_node_exact () =
  let net = build () in
  for _ = 1 to 50 do
    let from = Network.random_alive net in
    let target = Network.random_alive net in
    match Route.route_to_node net ~from target.Node.id with
    | Some reached, path ->
        Alcotest.(check bool) "reached target" true
          (Node_id.equal reached.Node.id target.Node.id);
        Alcotest.(check bool) "path starts at source" true
          (Node_id.equal (List.hd path).Node.id from.Node.id)
    | None, _ -> Alcotest.fail "exact-ID mesh routing must terminate at the target"
  done

let test_route_hop_bound () =
  let net = build ~n:200 () in
  let digits = net.Network.config.Config.id_digits in
  for _ = 1 to 50 do
    let from = Network.random_alive net in
    let info = Route.route_to_root net ~from (random_guid net) in
    Alcotest.(check bool) "path bounded by digit count" true
      (List.length info.Route.path <= digits + 1)
  done

let test_unique_root_native_and_prr () =
  let net = build ~n:150 () in
  List.iter
    (fun variant ->
      for _ = 1 to 30 do
        let guid = random_guid net in
        let roots =
          List.init 12 (fun _ ->
              let from = Network.random_alive net in
              (Route.route_to_root ~variant net ~from guid).Route.root.Node.id)
        in
        let first = List.hd roots in
        if not (List.for_all (Node_id.equal first) roots) then
          Alcotest.fail "surrogate routing produced two roots (Theorem 2)"
      done)
    [ Route.Native; Route.Prr_like ]

let test_native_root_matches_oracle () =
  let net = build ~n:150 () in
  let core = Verify.core net in
  for _ = 1 to 60 do
    let guid = random_guid net in
    let from = Network.random_alive net in
    let root = (Route.route_to_root net ~from guid).Route.root in
    let oracle = Verify.surrogate_oracle net core guid in
    Alcotest.(check bool) "matches digit-refinement oracle" true
      (Node_id.equal root.Node.id oracle.Node.id)
  done

let test_route_skip_excluded () =
  let net = build ~n:80 () in
  let guid = random_guid net in
  let from = Network.random_alive net in
  let root = (Route.route_to_root net ~from guid).Route.root in
  let info2 = Route.route_to_root ~exclude:root.Node.handle net ~from guid in
  if Node_id.equal from.Node.id root.Node.id then ()
  else
    Alcotest.(check bool) "excluded node never visited" false
      (List.exists
         (fun (h : Node.t) -> Node_id.equal h.Node.id root.Node.id)
         info2.Route.path)

let test_route_charges_cost () =
  let net = build ~n:80 () in
  let from = Network.random_alive net in
  let guid = random_guid net in
  let info, cost = Network.measure net (fun () -> Route.route_to_root net ~from guid) in
  Alcotest.(check int) "one message per inter-node hop"
    (List.length info.Route.path - 1)
    cost.Simnet.Cost.hops

(* --- multicast --- *)

let test_multicast_reaches_all_prefix_nodes () =
  let net = build ~n:150 () in
  for len = 1 to 3 do
    for _ = 1 to 20 do
      let anchor = Network.random_alive net in
      let prefix = Node_id.digits anchor.Node.id in
      let res = Multicast.run net ~start:anchor ~prefix ~len ~apply:ignore in
      let oracle =
        Network.alive_nodes net
        |> List.filter (fun (m : Node.t) -> Node_id.has_prefix m.Node.id ~prefix ~len)
      in
      Alcotest.(check int)
        (Printf.sprintf "coverage at len %d" len)
        (List.length oracle)
        (List.length res.Multicast.reached);
      Alcotest.(check int) "spanning tree edges"
        (List.length res.Multicast.reached - 1)
        res.Multicast.tree_edges
    done
  done

let test_multicast_applies_once () =
  let net = build ~n:150 () in
  let anchor = Network.random_alive net in
  let prefix = Node_id.digits anchor.Node.id in
  let seen = Node_id.Tbl.create 16 in
  let res =
    Multicast.run net ~start:anchor ~prefix ~len:1 ~apply:(fun n ->
        if Node_id.Tbl.mem seen n.Node.id then Alcotest.fail "applied twice";
        Node_id.Tbl.replace seen n.Node.id ())
  in
  Alcotest.(check int) "apply count" (List.length res.Multicast.reached)
    (Node_id.Tbl.length seen)

let test_multicast_rejects_bad_start () =
  let net = build ~n:40 () in
  let a = Network.random_alive net in
  let prefix = Node_id.digits a.Node.id in
  prefix.(0) <- (prefix.(0) + 1) mod 16;
  Alcotest.check_raises "prefix mismatch"
    (Invalid_argument "Multicast.run: start node lacks the prefix") (fun () ->
      ignore (Multicast.run net ~start:a ~prefix ~len:1 ~apply:ignore))

let test_multicast_watchlist_reports_fillers () =
  let net = build ~n:150 () in
  let anchor = Network.random_alive net in
  let prefix = Node_id.digits anchor.Node.id in
  (* watch every digit at level 1: recipients must report one filler per
     digit that actually has nodes, and none for genuine holes *)
  let core = Verify.core net in
  let hits = Array.make 16 0 in
  let wl = [| Array.make 16 true |] in
  (* only level-0 row watched here: level-1 certification needs prefix len 1;
     watch rows are indexed from level 0 *)
  ignore
    (Multicast.run
       ~on_watch_hit:(fun ~level ~digit (filler : Node.t) ->
         Alcotest.(check int) "level" 0 level;
         Alcotest.(check bool) "filler alive" true (Node.is_alive filler);
         hits.(digit) <- hits.(digit) + 1)
       ~watchlist:wl net ~start:anchor ~prefix ~len:1 ~apply:ignore);
  for d = 0 to 15 do
    let exists = Option.is_some (Verify.extension core anchor.Node.id ~level:0 ~digit:d) in
    if exists then
      Alcotest.(check bool) (Printf.sprintf "digit %x reported" d) true (hits.(d) > 0)
    else Alcotest.(check int) (Printf.sprintf "digit %x silent" d) 0 hits.(d)
  done

let test_publish_on_secondaries_widens_coverage () =
  let net = build ~n:150 () in
  let server = Network.random_alive net in
  let g1 = random_guid net and g2 = random_guid net in
  let count_pointers guid =
    List.fold_left
      (fun acc (n : Node.t) ->
        if Pointer_store.mem_guid n.Node.pointers guid then acc + 1 else acc)
      0 (Network.alive_nodes net)
  in
  ignore (Publish.publish net ~server g1);
  ignore (Publish.publish ~on_secondaries:true net ~server g2);
  let plain = count_pointers g1 and wide = count_pointers g2 in
  Alcotest.(check bool)
    (Printf.sprintf "secondaries widen coverage (%d > %d)" wide plain)
    true (wide > plain)

let test_optimize_through_moves_only_affected () =
  let net = build ~n:150 () in
  let server = Network.random_alive net in
  let guid = random_guid net in
  ignore (Publish.publish net ~server guid);
  let info = Route.route_to_root net ~from:server guid in
  match info.Route.path with
  | _ :: (second : Node.t) :: _ ->
      (* records at the server whose first hop is NOT [second] never move *)
      let moved =
        Maintenance.optimize_through net ~node:server ~next_hop:Node.no_handle
      in
      Alcotest.(check int) "unrelated next hop moves nothing" 0 moved;
      let moved2 =
        Maintenance.optimize_through net ~node:server ~next_hop:second.Node.handle
      in
      Alcotest.(check bool) "real next hop moves the record" true (moved2 >= 1);
      Alcotest.(check int) "property 4 intact" 0 (List.length (Verify.check_property4 net))
  | _ -> ()

let test_measure_nesting () =
  let net = build ~n:40 () in
  let a = Network.random_alive net in
  let b = Network.random_alive net in
  let (), outer =
    Network.measure net (fun () ->
        Network.charge net a b;
        let (), inner = Network.measure net (fun () -> Network.charge net a b) in
        Alcotest.(check int) "inner sees one" 1 inner.Simnet.Cost.messages)
  in
  Alcotest.(check int) "outer sees both" 2 outer.Simnet.Cost.messages;
  Network.without_charging net (fun () -> Network.charge net a b);
  let (), after = Network.measure net (fun () -> ()) in
  Alcotest.(check int) "rolled back" 0 after.Simnet.Cost.messages

(* --- publish / locate --- *)

let test_publish_deposits_along_path () =
  let net = build () in
  let server = Network.random_alive net in
  let guid = random_guid net in
  let outcome = Publish.publish net ~server guid in
  let root = List.hd outcome.Publish.roots in
  let info = Route.route_to_root net ~from:server guid in
  Alcotest.(check bool) "same root" true
    (Node_id.equal root.Node.id info.Route.root.Node.id);
  List.iter
    (fun (hop : Node.t) ->
      if Pointer_store.find hop.Node.pointers ~guid ~server:server.Node.handle ~root_idx:0 < 0
      then Alcotest.fail "missing pointer on publish path")
    info.Route.path;
  Alcotest.(check int) "no property-4 gaps" 0 (List.length (Verify.check_property4 net))

let test_locate_finds_everywhere () =
  let net = build () in
  let server = Network.random_alive net in
  let guid = random_guid net in
  ignore (Publish.publish net ~server guid);
  Alcotest.(check bool) "reachable from every node" true
    (Verify.reachable_everywhere net guid)

let test_locate_missing_object () =
  let net = build () in
  let client = Network.random_alive net in
  let res = Locate.locate net ~client (random_guid net) in
  Alcotest.(check bool) "not found" true (res.Locate.server = None)

let test_locate_prefers_close_replica () =
  let net = build ~n:200 () in
  let guid = random_guid net in
  let s1 = Network.random_alive net in
  let s2 = Network.random_alive net in
  ignore (Publish.publish net ~server:s1 guid);
  ignore (Publish.publish net ~server:s2 guid);
  let total_stretch = ref 0. and count = ref 0 in
  for _ = 1 to 60 do
    let client = Network.random_alive net in
    let opt = min (Network.dist net client s1) (Network.dist net client s2) in
    let res, cost = Network.measure net (fun () -> Locate.locate net ~client guid) in
    match res.Locate.server with
    | Some _ when opt > 1e-9 ->
        total_stretch := !total_stretch +. (cost.Simnet.Cost.latency /. opt);
        incr count
    | Some _ -> ()
    | None -> Alcotest.fail "published object must be found"
  done;
  let mean = !total_stretch /. float_of_int !count in
  Alcotest.(check bool) (Printf.sprintf "mean stretch %.2f < 8" mean) true (mean < 8.)

let test_unpublish_removes () =
  let net = build () in
  let server = Network.random_alive net in
  let guid = random_guid net in
  ignore (Publish.publish net ~server guid);
  Publish.unpublish net ~server guid;
  let client = Network.random_alive net in
  Alcotest.(check bool) "gone" true ((Locate.locate net ~client guid).Locate.server = None);
  List.iter
    (fun (n : Node.t) ->
      if Pointer_store.mem_guid n.Node.pointers guid then
        Alcotest.fail "stale pointer after unpublish")
    (Network.alive_nodes net)

let test_multi_replica_all_pointers_kept () =
  (* Tapestry difference #1 vs PRR: the root keeps a pointer per copy. *)
  let net = build () in
  let guid = random_guid net in
  let servers = List.init 3 (fun _ -> Network.random_alive net) in
  List.iter (fun s -> ignore (Publish.publish net ~server:s guid)) servers;
  let root = (Route.route_to_root net ~from:(List.hd servers) guid).Route.root in
  let servers_seen = ref [] in
  Pointer_store.iter_guid root.Node.pointers guid ~f:(fun c i ->
      let s = Network.node_of_handle net (Pointer_store.server c i) in
      servers_seen := Node_id.to_string s.Node.id :: !servers_seen);
  let distinct = List.sort_uniq String.compare !servers_seen in
  Alcotest.(check int) "root holds all copies"
    (List.length
       (List.sort_uniq String.compare
          (List.map (fun (s : Node.t) -> Node_id.to_string s.Node.id) servers)))
    (List.length distinct)

let test_multi_root_publication () =
  let cfg = { Config.default with Config.root_set_size = 3 } in
  let net = build ~cfg () in
  let server = Network.random_alive net in
  let guid = random_guid net in
  let outcome = Publish.publish net ~server guid in
  Alcotest.(check int) "three roots" 3 (List.length outcome.Publish.roots);
  for root_idx = 0 to 2 do
    let client = Network.random_alive net in
    let res = Locate.locate ~root_idx net ~client guid in
    Alcotest.(check bool)
      (Printf.sprintf "found via root %d" root_idx)
      true (res.Locate.server <> None)
  done

let test_soft_state_expiry_and_republish () =
  let net = build () in
  let server = Network.random_alive net in
  let guid = random_guid net in
  ignore (Publish.publish net ~server guid);
  net.Network.clock <- net.Network.clock +. Config.default.Config.pointer_ttl +. 1.;
  ignore (Maintenance.expire_all net);
  let client = Network.random_alive net in
  Alcotest.(check bool) "expired" true ((Locate.locate net ~client guid).Locate.server = None);
  ignore (Publish.republish net ~server guid);
  Alcotest.(check bool) "back" true ((Locate.locate net ~client guid).Locate.server <> None)

(* --- Figure 9 pointer optimization --- *)

let test_optimize_object_ptrs_converges () =
  let net = build ~n:150 () in
  let server = Network.random_alive net in
  let guid = random_guid net in
  ignore (Publish.publish net ~server guid);
  for i = 0 to Pointer_store.size server.Node.pointers - 1 do
    Maintenance.optimize_object_ptrs net ~changed:server i
  done;
  Alcotest.(check int) "P4 intact" 0 (List.length (Verify.check_property4 net))

let test_delete_pointers_backward () =
  let net = build ~n:150 () in
  let server = Network.random_alive net in
  let guid = random_guid net in
  ignore (Publish.publish net ~server guid);
  let info = Route.route_to_root net ~from:server guid in
  match List.rev info.Route.path with
  | root :: _ when List.length info.Route.path >= 3 -> (
      let ps = root.Node.pointers in
      match Pointer_store.find ps ~guid ~server:server.Node.handle ~root_idx:0 with
      | -1 -> Alcotest.fail "root pointer missing"
      | i ->
          let from = Pointer_store.previous (Pointer_store.cols ps) i in
          Alcotest.(check bool) "root has a previous hop" true (from >= 0);
          Maintenance.delete_pointers_backward net ~changed:server.Node.handle ~guid
            ~server:server.Node.handle ~root_idx:0 ~from;
          List.iter
            (fun (hop : Node.t) ->
              if
                (not (Node_id.equal hop.Node.id server.Node.id))
                && not (Node_id.equal hop.Node.id root.Node.id)
              then
                Alcotest.(check bool) "intermediate pointer deleted" true
                  (Pointer_store.find hop.Node.pointers ~guid ~server:server.Node.handle
                     ~root_idx:0
                  < 0))
            info.Route.path)
  | _ -> ()

(* --- locality (Section 6.3) --- *)

let test_stub_locality_never_escapes () =
  let rng = Simnet.Rng.create 3 in
  let ts = Simnet.Transit_stub.generate Simnet.Transit_stub.default_params ~rng in
  let metric = Simnet.Transit_stub.metric ts in
  let hosts = Simnet.Transit_stub.hosts ts in
  let net = Static_build.build ~seed:4 Config.default metric ~addrs:hosts in
  let same_stub = Simnet.Transit_stub.same_stub ts in
  let server = Network.random_alive net in
  let guid = random_guid net in
  Locality.publish net ~same_stub ~server guid;
  let clients =
    Network.alive_nodes net
    |> List.filter (fun (c : Node.t) -> same_stub c.Node.addr server.Node.addr)
  in
  List.iter
    (fun client ->
      let res, cost =
        Network.measure net (fun () -> Locality.locate net ~same_stub ~client guid)
      in
      Alcotest.(check bool) "found in stub" true (res.Locate.server <> None);
      (* intra-stub edges are ~1ms; any transit crossing costs >= 15 *)
      Alcotest.(check bool)
        (Printf.sprintf "latency %.1f stays intra-stub" cost.Simnet.Cost.latency)
        true
        (cost.Simnet.Cost.latency < 15.))
    clients

let test_stub_locality_falls_back () =
  let rng = Simnet.Rng.create 5 in
  let ts = Simnet.Transit_stub.generate Simnet.Transit_stub.default_params ~rng in
  let metric = Simnet.Transit_stub.metric ts in
  let hosts = Simnet.Transit_stub.hosts ts in
  let net = Static_build.build ~seed:6 Config.default metric ~addrs:hosts in
  let same_stub = Simnet.Transit_stub.same_stub ts in
  let server = Network.random_alive net in
  let guid = random_guid net in
  Locality.publish net ~same_stub ~server guid;
  let client =
    Network.alive_nodes net
    |> List.find (fun (c : Node.t) -> not (same_stub c.Node.addr server.Node.addr))
  in
  let res = Locality.locate net ~same_stub ~client guid in
  Alcotest.(check bool) "wide-area fallback" true (res.Locate.server <> None)

let () =
  Alcotest.run "protocol"
    [
      ( "static build",
        [
          Alcotest.test_case "properties 1 & 2" `Quick test_static_build_properties;
          Alcotest.test_case "backpointer symmetry" `Quick test_static_build_backpointer_symmetry;
        ] );
      ( "routing",
        [
          Alcotest.test_case "exact mesh routing" `Quick test_route_to_node_exact;
          Alcotest.test_case "hop bound" `Quick test_route_hop_bound;
          Alcotest.test_case "unique root, both variants" `Quick test_unique_root_native_and_prr;
          Alcotest.test_case "matches oracle" `Quick test_native_root_matches_oracle;
          Alcotest.test_case "exclusion" `Quick test_route_skip_excluded;
          Alcotest.test_case "cost charging" `Quick test_route_charges_cost;
        ] );
      ( "multicast",
        [
          Alcotest.test_case "full coverage + spanning tree" `Quick
            test_multicast_reaches_all_prefix_nodes;
          Alcotest.test_case "applies once" `Quick test_multicast_applies_once;
          Alcotest.test_case "rejects bad start" `Quick test_multicast_rejects_bad_start;
          Alcotest.test_case "watchlist reports fillers" `Quick
            test_multicast_watchlist_reports_fillers;
        ] );
      ( "publish/locate",
        [
          Alcotest.test_case "pointers along path" `Quick test_publish_deposits_along_path;
          Alcotest.test_case "locate everywhere" `Quick test_locate_finds_everywhere;
          Alcotest.test_case "missing object" `Quick test_locate_missing_object;
          Alcotest.test_case "close replica wins" `Quick test_locate_prefers_close_replica;
          Alcotest.test_case "unpublish" `Quick test_unpublish_removes;
          Alcotest.test_case "all copies kept" `Quick test_multi_replica_all_pointers_kept;
          Alcotest.test_case "multi-root" `Quick test_multi_root_publication;
          Alcotest.test_case "soft state" `Quick test_soft_state_expiry_and_republish;
        ] );
      ( "pointer maintenance",
        [
          Alcotest.test_case "optimize converges" `Quick test_optimize_object_ptrs_converges;
          Alcotest.test_case "delete backward" `Quick test_delete_pointers_backward;
          Alcotest.test_case "optimize_through selectivity" `Quick
            test_optimize_through_moves_only_affected;
        ] );
      ( "accounting",
        [
          Alcotest.test_case "secondaries publication" `Quick
            test_publish_on_secondaries_widens_coverage;
          Alcotest.test_case "measure nesting + rollback" `Quick test_measure_nesting;
        ] );
      ( "stub locality",
        [
          Alcotest.test_case "never escapes stub" `Quick test_stub_locality_never_escapes;
          Alcotest.test_case "wide-area fallback" `Quick test_stub_locality_falls_back;
        ] );
    ]
