type outcome = { roots : Node.t list; path_lengths : int list }

let deposit net (node : Node.t) ~guid ~server_id ~root_idx ~previous =
  let expires = net.Network.clock +. net.Network.config.Config.pointer_ttl in
  ignore
    (Pointer_store.store node.Node.pointers ~guid ~server:server_id ~root_idx
       ~previous ~expires)

let walk_one_root ?variant ?(on_secondaries = false) net ~(server : Node.t) guid
    ~root_idx =
  let cfg = net.Network.config in
  let salted = Network.salted net guid root_idx in
  (* Fold along the root path, depositing a pointer at every node. *)
  let root, (_, hops), _ =
    Route.fold_path ?variant net ~from:server salted ~init:(None, 0)
      ~f:(fun (prev, hops) node ->
        deposit net node ~guid ~server_id:server.Node.id ~root_idx
          ~previous:(match prev with
            | Some (p : Node.t) -> Some p.Node.id
            | None -> None);
        if on_secondaries then begin
          (* PRR-style: the pointer also lands on the secondaries of the slot
             about to be crossed; approximate by offering to every secondary
             this node knows at the level just resolved. *)
          let level = min (hops) (cfg.Config.id_digits - 1) in
          let digit = Node_id.digit salted level in
          let table = node.Node.table in
          for k = 0 to Routing_table.slot_len table ~level ~digit - 1 do
            let h = Routing_table.slot_handle table ~level ~digit ~k in
            let sec =
              if h >= 0 then Some (Network.node_of_handle net h)
              else Network.find net (Routing_table.slot_id table ~level ~digit ~k)
            in
            match sec with
            | Some sec
              when Node.is_alive sec
                   && not (Node_id.equal sec.Node.id node.Node.id) ->
                Network.charge_aside net node sec;
                deposit net sec ~guid ~server_id:server.Node.id ~root_idx
                  ~previous:(Some node.Node.id)
            | _ -> ()
          done
        end;
        `Continue (Some node, hops + 1))
  in
  (root, hops - 1)

let publish ?variant ?on_secondaries net ~server guid =
  Node.add_replica server guid;
  let cfg = net.Network.config in
  let results =
    List.init cfg.Config.root_set_size (fun root_idx ->
        walk_one_root ?variant ?on_secondaries net ~server guid ~root_idx)
  in
  { roots = List.map fst results; path_lengths = List.map snd results }

let republish ?variant net ~server guid =
  let cfg = net.Network.config in
  let results =
    List.init cfg.Config.root_set_size (fun root_idx ->
        walk_one_root ?variant net ~server guid ~root_idx)
  in
  { roots = List.map fst results; path_lengths = List.map snd results }

let unpublish ?variant net ~(server : Node.t) guid =
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
      Route.fold_path ?variant net ~from:server salted ~init:()
        ~f:(fun () node ->
          ignore
            (Pointer_store.remove node.Node.pointers ~guid ~server:server.Node.id
               ~root_idx);
          `Continue ())
    in
    ()
  done
