type outcome = { roots : Node.t list; path_lengths : int list }

let deposit net (node : Node.t) ~guid ~server ~root_idx ~previous =
  let expires = net.Network.clock +. net.Network.config.Config.pointer_ttl in
  ignore
    (Pointer_store.store node.Node.pointers ~guid ~server ~root_idx ~previous
       ~expires)

let walk_one_root ?(on_secondaries = false) net ~(server : Node.t) guid
    ~root_idx =
  let cfg = net.Network.config in
  let salted = Network.salted net guid root_idx in
  let srv = server.Node.handle in
  (* Fold along the root path, depositing a pointer at every node. *)
  let root, (_, hops), _ =
    Route.fold_path net ~from:server salted ~init:(Node.no_handle, 0)
      ~f:(fun (prev, hops) node ->
        deposit net node ~guid ~server:srv ~root_idx ~previous:prev;
        if on_secondaries then begin
          (* PRR-style: the pointer also lands on the secondaries of the slot
             about to be crossed; approximate by offering to every secondary
             this node knows at the level just resolved. *)
          let level = min (hops) (cfg.Config.id_digits - 1) in
          let digit = Node_id.digit salted level in
          let table = node.Node.table in
          for k = 0 to Routing_table.slot_len table ~level ~digit - 1 do
            let sec =
              Network.node_of_handle net
                (Routing_table.slot_handle table ~level ~digit ~k)
            in
            if Node.is_alive sec && sec.Node.handle <> node.Node.handle then begin
              Network.charge_aside net node sec;
              deposit net sec ~guid ~server:srv ~root_idx
                ~previous:node.Node.handle
            end
          done
        end;
        `Continue (node.Node.handle, hops + 1))
  in
  (root, hops - 1)

let walk_all ?on_secondaries net ~server guid =
  let results =
    List.init net.Network.config.Config.root_set_size (fun root_idx ->
        walk_one_root ?on_secondaries net ~server guid ~root_idx)
  in
  { roots = List.map fst results; path_lengths = List.map snd results }

let publish ?on_secondaries net ~server guid =
  Node.add_replica server guid;
  walk_all ?on_secondaries net ~server guid

let republish net ~server guid = walk_all net ~server guid

let unpublish net ~(server : Node.t) guid =
  let cfg = net.Network.config in
  Node.remove_replica server guid;
  (* Retract cached shortcuts: bumping the (object, server) pair epoch
     lazily invalidates every cache entry naming THIS server for the
     object (Obj_cache / DESIGN.md §10); entries for the object's other
     replicas stay valid.  [find_key] rather than [intern]: never
     create a key here. *)
  (match net.Network.obj_cache with
  | Some c ->
      let key = Obj_cache.find_key c guid in
      if key >= 0 then Obj_cache.bump_epoch c ~key ~srv:server.Node.handle
  | None -> ());
  for root_idx = 0 to cfg.Config.root_set_size - 1 do
    let salted = Network.salted net guid root_idx in
    let _, _, _ =
      Route.fold_path net ~from:server salted ~init:()
        ~f:(fun () node ->
          ignore
            (Pointer_store.remove node.Node.pointers ~guid
               ~server:server.Node.handle ~root_idx);
          `Continue ())
    in
    ()
  done
