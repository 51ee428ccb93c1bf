type env = {
  sched : Simnet.Fiber.t;
  net : Network.t;
  latency_scale : float;
  timeout : float;
}

let make_env ?(latency_scale = 1.0) ?(timeout = 2.0) sched net =
  { sched; net; latency_scale; timeout }

let sync_clock env = env.net.Network.clock <- Simnet.Fiber.now env.sched

(* A hop: charge the cost accounting AND advance virtual time. *)
let hop env (a : Node.t) (b : Node.t) =
  Network.charge env.net a b;
  Simnet.Fiber.sleep env.sched (env.latency_scale *. Network.dist env.net a b);
  sync_clock env

let dead_probe env =
  Simnet.Cost.message env.net.Network.cost ~dist:0.;
  Simnet.Fiber.sleep env.sched env.timeout;
  sync_clock env

(* Asynchronous surrogate walk: the routing decision at each node is taken
   against the state present on arrival. *)
let walk ?(variant = Route.Native) env ~(from : Node.t) guid ~visit =
  let digits = env.net.Network.config.Config.id_digits in
  let rec go (node : Node.t) level path surrogate_hops =
    if level >= digits then (node, path, surrogate_hops)
    else begin
      (* reuse the synchronous chooser for one step: peek, then travel *)
      let next =
        Route.peek_first_hop ~variant
          ~on_dead:(fun net ~owner ~dead ->
            dead_probe env;
            Delete.on_dead_repair net ~owner ~dead)
          env.net node guid
      in
      match next with
      | None -> (node, path, surrogate_hops)
      | Some next ->
          hop env node next;
          let cpl = Node_id.common_prefix_len next.Node.id guid in
          let detour = if cpl <= level then 1 else 0 in
          if not (Node.is_alive next) then
            (* it died while the message was in flight: bounce back *)
            go node (level + 1) path surrogate_hops
          else if visit next then (next, next :: path, surrogate_hops)
          else go next (level + 1) (next :: path) (surrogate_hops + detour)
    end
  in
  if visit from then (from, [ from ], 0)
  else begin
    let final, rev_path, hops = go from 0 [ from ] 0 in
    (final, rev_path, hops)
  end

let route_to_root ?variant env ~from guid =
  let final, rev_path, surrogate_hops =
    walk ?variant env ~from guid ~visit:(fun _ -> false)
  in
  { Route.root = final; path = List.rev rev_path; surrogate_hops }

let usable env (node : Node.t) guid =
  Pointer_store.find_guid node.Node.pointers guid
  |> List.filter (fun (r : Pointer_store.record) ->
         r.Pointer_store.expires >= env.net.Network.clock
         &&
         match Network.find env.net r.Pointer_store.server with
         | Some s -> Node.is_alive s && Node.stores_replica s guid
         | None -> false)

let locate env ~client guid =
  sync_clock env;
  let salted = Network.salted env.net guid 0 in
  let found = ref None in
  let final, rev_path, _ =
    walk env ~from:client salted ~visit:(fun node ->
        match usable env node guid with
        | [] -> false
        | records ->
            found := Some (node, records);
            true)
  in
  ignore final;
  match !found with
  | None ->
      { Locate.server = None; pointer_node = None; walk = List.rev rev_path; redirects = 0 }
  | Some (pointer_node, records) -> (
      let best =
        List.fold_left
          (fun acc (r : Pointer_store.record) ->
            match Network.find env.net r.Pointer_store.server with
            | None -> acc
            | Some s -> (
                let d = Network.dist env.net pointer_node s in
                match acc with
                | Some (_, bd) when bd <= d -> acc
                | _ -> Some (s, d)))
          None records
      in
      match best with
      | None ->
          { Locate.server = None; pointer_node = None; walk = List.rev rev_path; redirects = 0 }
      | Some (server, _) ->
          (* travel to the replica *)
          hop env pointer_node server;
          let server = if Node.is_alive server then Some server else None in
          {
            Locate.server;
            pointer_node = Some pointer_node;
            walk = List.rev rev_path;
            redirects = 0;
          })

let publish env ~server guid =
  sync_clock env;
  Node.add_replica server guid;
  let cfg = env.net.Network.config in
  let expires () = env.net.Network.clock +. cfg.Config.pointer_ttl in
  for root_idx = 0 to cfg.Config.root_set_size - 1 do
    let salted = Network.salted env.net guid root_idx in
    let prev = ref None in
    (* the visitor deposits at every node the walk arrives at (the source
       first) and never stops the walk *)
    let deposit (node : Node.t) =
      ignore
        (Pointer_store.store node.Node.pointers ~guid ~server:server.Node.id
           ~root_idx ~previous:!prev ~expires:(expires ()));
      prev := Some node.Node.id;
      false
    in
    let _, _, _ = walk env ~from:server salted ~visit:deposit in
    ()
  done

let heartbeat_daemon env ~period ~rounds =
  for _ = 1 to rounds do
    Simnet.Fiber.sleep env.sched period;
    sync_clock env;
    let saw_failure = ref false in
    List.iter
      (fun (node : Node.t) ->
        if Node.is_alive node then begin
          Routing_table.iter_handles node.Node.table (fun ~level:_ h ->
              let peer = Network.node_of_handle env.net h in
              if Node.is_alive peer then begin
                (* beacon + ack *)
                Network.charge_aside env.net node peer;
                Network.charge_aside env.net peer node
              end);
          (* each node's timeouts run concurrently, so the sweep round
             costs one timeout of virtual time overall, not one per probe *)
          match Delete.dead_neighbours env.net node with
          | [] -> ()
          | dead ->
              saw_failure := true;
              List.iter
                (fun (d : Node.t) ->
                  Simnet.Cost.message env.net.Network.cost ~dist:0.;
                  Delete.on_dead_repair env.net ~owner:node ~dead:d.Node.id)
                (List.sort (fun (a : Node.t) b -> Node_id.compare a.id b.Node.id) dead)
        end)
      (Network.alive_nodes env.net);
    if !saw_failure then begin
      Simnet.Fiber.sleep env.sched env.timeout;
      sync_clock env
    end
  done

let republish_daemon env ~period ~rounds =
  for _ = 1 to rounds do
    Simnet.Fiber.sleep env.sched period;
    sync_clock env;
    ignore (Maintenance.expire_all env.net);
    List.iter
      (fun (server : Node.t) ->
        let replicas =
          Node_id.Tbl.fold (fun g () acc -> g :: acc) server.Node.replicas []
        in
        List.iter (fun guid -> ignore (Publish.republish env.net ~server guid)) replicas)
      (Network.alive_nodes env.net)
  done
