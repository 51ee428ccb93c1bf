(* Quickstart: bring up a Tapestry network node by node, publish an object
   from two servers, and locate it from a few clients.

   Run with: dune exec examples/quickstart.exe *)

open Tapestry

let () =
  (* 1. A metric space: 100 hosts placed uniformly in a unit square.  Any
     Simnet.Metric works; the protocols only ever ask for distances. *)
  let rng = Simnet.Rng.create 2024 in
  let n = 100 in
  let metric = Simnet.Topology.generate Simnet.Topology.Uniform_square ~n ~rng in

  (* 2. Grow the network with the paper's dynamic insertion algorithm: every
     node after the first joins through a random gateway. *)
  let addrs = List.init n (fun i -> i) in
  let net, reports = Insert.build_incremental ~seed:7 Config.default metric ~addrs in
  Printf.printf "network up: %d nodes\n" (Network.node_count net);
  let mean_msgs =
    List.fold_left (fun a (r : Insert.report) -> a + r.Insert.cost.Simnet.Cost.messages)
      0 reports
    |> fun total -> float_of_int total /. float_of_int (List.length reports)
  in
  Printf.printf "mean join cost: %.1f messages\n\n" mean_msgs;

  (* 3. Publish one object from two replica servers. *)
  let cfg = net.Network.config in
  let guid = Node_id.random ~base:cfg.Config.base ~len:cfg.Config.id_digits net.Network.rng in
  let server_a = Network.random_alive net in
  let server_b = Network.random_alive net in
  ignore (Publish.publish net ~server:server_a guid);
  ignore (Publish.publish net ~server:server_b guid);
  Printf.printf "object %s stored at %s and %s\n" (Node_id.to_string guid)
    (Node_id.to_string server_a.Node.id)
    (Node_id.to_string server_b.Node.id);

  (* 4. Locate it from three random clients; each should get the replica
     close to it, at low stretch. *)
  for _ = 1 to 3 do
    let client = Network.random_alive net in
    let res, cost = Network.measure net (fun () -> Locate.locate net ~client guid) in
    match res.Locate.server with
    | Some s ->
        let optimal =
          min (Network.dist net client server_a) (Network.dist net client server_b)
        in
        Printf.printf
          "client %s -> replica %s | %d hops, latency %.4f, optimal %.4f, stretch %.2f\n"
          (Node_id.to_string client.Node.id)
          (Node_id.to_string s.Node.id)
          cost.Simnet.Cost.hops cost.Simnet.Cost.latency optimal
          (if optimal > 0. then cost.Simnet.Cost.latency /. optimal else 1.)
    | None -> Printf.printf "object not found (unexpected)\n"
  done;

  (* 5. A server withdraws; the object stays available via the other one. *)
  print_newline ();
  ignore (Delete.voluntary net server_a);
  Printf.printf "server %s left the network (voluntary delete)\n"
    (Node_id.to_string server_a.Node.id);
  let client = Network.random_alive net in
  let res = Locate.locate net ~client guid in
  (match res.Locate.server with
  | Some s ->
      Printf.printf "object still available, now served by %s\n"
        (Node_id.to_string s.Node.id)
  | None -> Printf.printf "object lost (unexpected)\n");

  (* 6. Everything above holds by construction, not luck: check the paper's
     invariants over the final state. *)
  assert (match Verify.check_property1 net with [] -> true | _ :: _ -> false);
  assert (match Verify.check_property4 net with [] -> true | _ :: _ -> false);
  print_endline "invariants hold: Property 1 (consistency), Property 4 (pointer paths)"
