let local_root_idx = 1_000_000

let outside_stub net ~same_stub ~(anchor : Node.t) h =
  not (same_stub anchor.Node.addr (Network.node_of_handle net h).Node.addr)

(* Deposit local-branch pointers from [start] to the stub-local surrogate
   root (routing that never considers out-of-stub entries). *)
let publish_local_branch net ~same_stub ~(server : Node.t) ~(start : Node.t) guid =
  let cfg = net.Network.config in
  let expires = net.Network.clock +. cfg.Config.pointer_ttl in
  let skip = outside_stub net ~same_stub ~anchor:start in
  let _, _, _ =
    Route.fold_path ~skip net ~from:start guid ~init:Node.no_handle
      ~f:(fun prev node ->
        ignore
          (Pointer_store.store node.Node.pointers ~guid
             ~server:server.Node.handle ~root_idx:local_root_idx
             ~previous:prev ~expires);
        `Continue node.Node.handle)
  in
  ()

let publish net ~same_stub ~server guid =
  (* Ordinary wide-area publish... *)
  ignore (Publish.publish net ~server guid);
  (* ...plus the local branch rooted inside the server's stub. *)
  publish_local_branch net ~same_stub ~server ~start:server guid

let locate net ~same_stub ~(client : Node.t) guid =
  let skip = outside_stub net ~same_stub ~anchor:client in
  (* Stub-confined walk: stop at the first local pointer whose server is in
     reach; the walk dead-ends at the stub-local root. *)
  let usable = Locate.usable net guid in
  let _, found, _ =
    Route.fold_path ~skip net ~from:client guid ~init:None ~f:(fun _ node ->
        if Pointer_store.exists_guid_match node.Node.pointers guid ~f:usable
        then `Stop (Some node)
        else `Continue None)
  in
  match found with
  | Some pointer_node -> (
      match Locate.closest_usable_server net pointer_node guid with
      | None -> Locate.locate net ~client guid
      | Some server ->
          let reached, _ =
            if Node_id.equal server.Node.id pointer_node.Node.id then
              (Some server, [])
            else Route.route_to_node net ~from:pointer_node server.Node.id
          in
          {
            Locate.server = reached;
            pointer_node = Some pointer_node;
            walk = [];
            redirects = 0;
          })
  | None ->
      (* Nothing in the stub: resume ordinary wide-area location. *)
      Locate.locate net ~client guid
