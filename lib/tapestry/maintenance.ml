let salted_of net (r : Pointer_store.record) =
  Network.salted net r.guid r.root_idx

let rec delete_pointers_backward net ~changed ~guid ~server ~root_idx ~from =
  let node = Network.node_of_handle net from in
  if Node.is_alive node then
    match Pointer_store.find node.Node.pointers ~guid ~server ~root_idx with
    | None -> ()
    | Some r ->
        let prev = r.previous in
        ignore (Pointer_store.remove node.Node.pointers ~guid ~server ~root_idx);
        if prev >= 0 && prev <> changed then begin
          let pnode = Network.node_of_handle net prev in
          if Node.is_alive pnode then Network.charge net node pnode;
          delete_pointers_backward net ~changed ~guid ~server ~root_idx
            ~from:prev
        end

(* [@alloc_ok]: the fold callback, once per re-walked record. *)
let[@alloc_ok] optimize_object_ptrs ?variant net ~(changed : Node.t)
    (r : Pointer_store.record) =
  let salted = salted_of net r in
  let guid = r.guid and server = r.server and root_idx = r.root_idx in
  let expires = net.Network.clock +. net.Network.config.Config.pointer_ttl in
  let me = changed.Node.handle in
  (* Walk the new path from the changed node; each visited node refreshes its
     record with the new last hop.  The first node that already held the
     record is the convergence point: the path above it is unchanged, and the
     old branch hanging off its previous pointer is deleted backward. *)
  let _, _, _ =
    Route.fold_path ?variant net ~from:changed salted ~init:me
      ~f:(fun sender node ->
        let h = node.Node.handle in
        if h = me then `Continue h
        else begin
          let old =
            Pointer_store.store node.Node.pointers ~guid ~server ~root_idx
              ~previous:sender ~expires
          in
          if old = Pointer_store.fresh then `Continue h
          else begin
            if old >= 0 && old <> sender && old <> me then begin
              let pnode = Network.node_of_handle net old in
              if Node.is_alive pnode then Network.charge net node pnode;
              delete_pointers_backward net ~changed:me ~guid ~server ~root_idx
                ~from:old
            end;
            `Stop h
          end
        end)
  in
  ()

(* [@alloc_ok]: the records snapshot (the walks below rewrite the store)
   and its iteration closure, once per repointed node. *)
let[@alloc_ok] repoint net (node : Node.t) =
  let records = Pointer_store.records node.Node.pointers in
  List.iter (fun r -> optimize_object_ptrs net ~changed:node r) records;
  List.length records

(* [@alloc_ok]: as [repoint], once per node an insertion multicast reaches. *)
let[@alloc_ok] optimize_through ?variant net ~(node : Node.t) ~next_hop =
  List.fold_left
    (fun moved (r : Pointer_store.record) ->
      match Route.peek_first_hop ?variant net node (salted_of net r) with
      | Some hop when hop.Node.handle = next_hop ->
          optimize_object_ptrs ?variant net ~changed:node r;
          moved + 1
      | _ -> moved)
    0
    (Pointer_store.records node.Node.pointers)

(* [@alloc_ok] on the soft-state sweeps below: the alive list and the
   fold callbacks, once per network-wide sweep. *)
let[@alloc_ok] expire_all net =
  List.fold_left
    (fun acc (n : Node.t) ->
      acc + Pointer_store.expire n.Node.pointers ~now:net.Network.clock)
    0
    (Network.alive_nodes net)

let[@alloc_ok] republish_all net =
  List.fold_left
    (fun acc (n : Node.t) ->
      Node_id.Tbl.iter
        (fun guid () -> ignore (Publish.republish net ~server:n guid))
        n.Node.replicas;
      acc + Node_id.Tbl.length n.Node.replicas)
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
