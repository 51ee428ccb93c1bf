(* Churn: a peer-to-peer file network where peers come and go continuously —
   the scenario Sections 4 and 5 of the paper are about.  Half the events are
   silent failures (the "common case" of Section 5.2); the rest are graceful
   leaves and new joins.  Object availability is probed throughout.

   Run with: dune exec examples/churn.exe *)

open Tapestry

let () =
  let seed = 99 in
  let base_n = 150 in
  let spare = 100 in
  let rng = Simnet.Rng.create seed in
  let metric =
    Simnet.Topology.generate Simnet.Topology.Uniform_square ~n:(base_n + spare) ~rng
  in
  let addrs = List.init base_n (fun i -> i) in
  let net, _ = Insert.build_incremental ~seed:(seed + 1) Config.default metric ~addrs in

  (* Publish a small library of files, two replicas each. *)
  let objects = Evaluation.Workload.place_objects net ~count:40 ~replicas:2 in
  let guids = List.map (fun (o : Evaluation.Workload.placed_object) -> o.guid) objects in
  let server_ids =
    List.concat_map
      (fun (o : Evaluation.Workload.placed_object) ->
        List.map (fun (s : Node.t) -> s.Node.id) o.servers)
      objects
  in
  Printf.printf "start: %d peers, %d files x2 replicas\n\n" base_n (List.length guids);

  let is_server (v : Node.t) = List.exists (Node_id.equal v.Node.id) server_ids in
  let next_addr = ref base_n in
  let events = 60 in
  let probe_batch = 20 in
  let ok = ref 0 and total = ref 0 in
  for step = 1 to events do
    (* one membership event *)
    let u = Simnet.Rng.float net.Network.rng 1.0 in
    (if u < 0.35 && !next_addr < base_n + spare then begin
       let gw = Network.random_alive net in
       ignore (Insert.insert net ~gateway:gw ~addr:!next_addr);
       incr next_addr
     end
     else begin
       (* pick a departing peer that serves no replica *)
       let rec victim tries =
         if tries = 0 then None
         else begin
           let v = Network.random_alive net in
           if Node.is_core v && not (is_server v) then Some v else victim (tries - 1)
         end
       in
       match victim 40 with
       | Some v when u < 0.65 -> ignore (Delete.voluntary net v)
       | Some v -> Delete.fail net v (* silent crash *)
       | None -> ()
     end);
    (* probe availability *)
    for _ = 1 to probe_batch do
      incr total;
      let client = Network.random_alive net in
      let guid = Simnet.Rng.pick_list net.Network.rng guids in
      if (Locate.locate net ~client guid).Locate.server <> None then incr ok
    done;
    (* background soft-state maintenance *)
    Maintenance.tick net ~dt:15.;
    if step mod 15 = 0 then
      Printf.printf "after %3d events: %3d peers alive, availability so far %.4f\n"
        step
        (List.length (Network.alive_nodes net))
        (float_of_int !ok /. float_of_int !total)
  done;

  Printf.printf "\nfinal availability: %.4f over %d probes\n"
    (float_of_int !ok /. float_of_int !total)
    !total;
  let v1 = Verify.check_property1 net in
  Printf.printf "Property 1 violations left by lazy repair: %d\n" (List.length v1);
  (* Lazy repair only fixes what routing touches (Section 5.2); an explicit
     anti-entropy sweep closes the rest. *)
  let filled = Delete.repair_all_holes net in
  let v1' = Verify.check_property1 net in
  Printf.printf "after anti-entropy sweep (+%d links): %d violations\n" filled
    (List.length v1')
