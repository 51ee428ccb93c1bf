let salted_of net (r : Pointer_store.record) =
  Network.salted net r.guid r.root_idx

let rec delete_backward_from net ~changed ~guid ~server ~root_idx (node : Node.t) =
  match Pointer_store.find node.Node.pointers ~guid ~server ~root_idx with
  | None -> ()
  | Some r ->
      let prev = r.previous in
      ignore (Pointer_store.remove node.Node.pointers ~guid ~server ~root_idx);
      (match prev with
      | Some p when not (Node_id.equal p changed) -> (
          match Network.find net p with
          | Some pnode when Node.is_alive pnode ->
              Network.charge net node pnode;
              delete_backward_from net ~changed ~guid ~server ~root_idx pnode
          | _ -> ())
      | _ -> ())

let delete_pointers_backward net ~changed ~guid ~server ~root_idx ~from =
  match Network.find net from with
  | Some node when Node.is_alive node ->
      delete_backward_from net ~changed ~guid ~server ~root_idx node
  | _ -> ()

let optimize_object_ptrs ?variant net ~(changed : Node.t) (r : Pointer_store.record) =
  let salted = salted_of net r in
  let guid = r.guid and server = r.server and root_idx = r.root_idx in
  let expires = net.Network.clock +. net.Network.config.Config.pointer_ttl in
  (* Walk the new path from the changed node; each visited node refreshes its
     record with the new last hop.  The first node that already held the
     record is the convergence point: the path above it is unchanged, and the
     old branch hanging off its previous pointer is deleted backward. *)
  let _, _, _ =
    Route.fold_path ?variant net ~from:changed salted ~init:changed.Node.id
      ~f:(fun sender node ->
        if Node_id.equal node.Node.id changed.Node.id then `Continue node.Node.id
        else begin
          let previous = Some sender in
          match
            Pointer_store.store node.Node.pointers ~guid ~server ~root_idx
              ~previous ~expires
          with
          | `New -> `Continue node.Node.id
          | `Refreshed old -> (
              match old with
              | Some old_prev
                when (not (Node_id.equal old_prev sender))
                     && not (Node_id.equal old_prev changed.Node.id) ->
                  (match Network.find net old_prev with
                  | Some pnode when Node.is_alive pnode ->
                      Network.charge net node pnode
                  | _ -> ());
                  delete_pointers_backward net ~changed:changed.Node.id ~guid
                    ~server ~root_idx ~from:old_prev;
                  `Stop node.Node.id
              | _ -> `Stop node.Node.id)
        end)
  in
  ()

let repoint net (node : Node.t) =
  let records = Pointer_store.records node.Node.pointers in
  List.iter (fun r -> optimize_object_ptrs net ~changed:node r) records;
  List.length records

let optimize_through ?variant net ~(node : Node.t) ~next_hop =
  let moved = ref 0 in
  Pointer_store.records node.Node.pointers
  |> List.iter (fun (r : Pointer_store.record) ->
         let salted = salted_of net r in
         match Route.peek_first_hop ?variant net node salted with
         | Some hop when Node_id.equal hop.Node.id next_hop ->
             incr moved;
             optimize_object_ptrs ?variant net ~changed:node r
         | _ -> ());
  !moved

let expire_all net =
  List.fold_left
    (fun acc (n : Node.t) ->
      acc + Pointer_store.expire n.Node.pointers ~now:net.Network.clock)
    0
    (Network.alive_nodes net)

let republish_all net =
  List.fold_left
    (fun acc (n : Node.t) ->
      let count = ref 0 in
      Node_id.Tbl.iter
        (fun guid () ->
          incr count;
          ignore (Publish.republish net ~server:n guid))
        n.Node.replicas;
      acc + !count)
    0
    (Network.alive_nodes net)

let tick net ~dt =
  let cfg = net.Network.config in
  let before = net.Network.clock in
  net.Network.clock <- before +. dt;
  let interval = cfg.Config.republish_interval in
  let crossed =
    int_of_float (net.Network.clock /. interval) > int_of_float (before /. interval)
  in
  if crossed then ignore (republish_all net);
  ignore (expire_all net)
