type stats = {
  nodes_touched : int;
  primaries_changed : int;
  pointers_moved : int;
  cost : Simnet.Cost.t;
}

let measure_entry net (owner : Node.t) handle =
  let peer = Network.node_of_handle net handle in
  if Node.is_alive peer then begin
    (* a ping and its echo *)
    Network.charge_aside net owner peer;
    Network.charge_aside net peer owner;
    Some (Network.dist net owner peer)
  end
  else None

let run_per_node net work =
  let touched = ref 0 and changed = ref 0 and moved = ref 0 in
  let (), cost =
    Network.measure net (fun () ->
        List.iter
          (fun (node : Node.t) ->
            incr touched;
            let c = work node in
            if c > 0 then begin
              changed := !changed + c;
              moved := !moved + Maintenance.repoint net node
            end)
          (Network.core_nodes net))
  in
  {
    nodes_touched = !touched;
    primaries_changed = !changed;
    pointers_moved = !moved;
    cost;
  }

let rotate_primaries net =
  run_per_node net (fun node ->
      Routing_table.update_distances node.Node.table
        ~measure:(measure_entry net node))

let share_tables net =
  run_per_node net (fun node ->
      (* ship each level's entries to the level's known neighbors; the
         receivers re-measure and keep whatever is closer *)
      let improved = ref 0 in
      let levels = Routing_table.levels node.Node.table in
      for level = 0 to levels - 1 do
        let peers = Network.live_neighbours net node ~level in
        List.iter
          (fun (peer : Node.t) ->
            Network.charge_aside net node peer;
            List.iter
              (fun cand ->
                if Network.offer_link net ~owner:peer ~level ~candidate:cand then
                  incr improved)
              peers)
          peers
      done;
      (* refresh our own ordering too, so new offers take primary slots *)
      !improved
      + Routing_table.update_distances node.Node.table
          ~measure:(measure_entry net node))

let rebuild_level net ~level =
  run_per_node net (fun node ->
      if level >= Routing_table.levels node.Node.table then 0
      else begin
        (* one GetNextList step: ask the level-(level+1)-ish contacts for
           their level-[level] pointers and merge the k closest *)
        let k = Config.scaled_k net.Network.config ~n:(Network.node_count net) in
        let found =
          Nearest_neighbor.get_next_list net ~new_node:node ~level
            (Network.live_neighbours net node ~level)
            ~k
        in
        let before =
          Routing_table.update_distances node.Node.table
            ~measure:(measure_entry net node)
        in
        List.iter
          (fun m -> ignore (Network.offer_link_all_levels net ~owner:node ~candidate:m))
          found;
        before
      end)

let full_rebuild net =
  run_per_node net (fun node ->
      let changed =
        Routing_table.update_distances node.Node.table
          ~measure:(measure_entry net node)
      in
      (* rerun the acquisition exactly as a fresh join would: find the
         current surrogate (self masked out), multicast for the alpha list,
         then the Section 3 descent *)
      let info = Route.route_to_root ~exclude:node.Node.handle net ~from:node node.Node.id in
      let surrogate = info.Route.root in
      if Node_id.equal surrogate.Node.id node.Node.id then changed
      else begin
        let shared = Node_id.common_prefix_len node.Node.id surrogate.Node.id in
        let mcast =
          Multicast.run net ~start:surrogate ~prefix:(Node_id.digits node.Node.id)
            ~len:shared ~apply:ignore
        in
        ignore
          (Nearest_neighbor.acquire_neighbor_table net ~new_node:node ~surrogate
             ~initial_list:mcast.Multicast.reached);
        changed
      end)
