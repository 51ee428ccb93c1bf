let rec delete_pointers_backward net ~changed ~guid ~server ~root_idx ~from =
  let node = Network.node_of_handle net from in
  if Node.is_alive node then begin
    let ps = node.Node.pointers in
    let i = Pointer_store.find ps ~guid ~server ~root_idx in
    if i >= 0 then begin
      let prev = Pointer_store.previous (Pointer_store.cols ps) i in
      ignore (Pointer_store.remove ps ~guid ~server ~root_idx);
      if prev >= 0 && prev <> changed then begin
        let pnode = Network.node_of_handle net prev in
        if Node.is_alive pnode then Network.charge net node pnode;
        delete_pointers_backward net ~changed ~guid ~server ~root_idx
          ~from:prev
      end
    end
  end

(* [@alloc_ok]: the fold callback, once per re-walked record. *)
let[@alloc_ok] optimize_object_ptrs net ~(changed : Node.t) i =
  let c = Pointer_store.cols changed.Node.pointers in
  let guid = c.guid.(i)
  and server = Pointer_store.server c i
  and root_idx = Pointer_store.root_idx c i in
  let salted = Network.salted net guid root_idx in
  let expires = net.Network.clock +. net.Network.config.Config.pointer_ttl in
  let me = changed.Node.handle in
  (* Walk the new path from the changed node; each visited node refreshes its
     record with the new last hop.  The first node that already held the
     record is the convergence point: the path above it is unchanged, and the
     old branch hanging off its previous pointer is deleted backward.  The
     walk never writes the changed node's own store: it skips [me], and the
     backward delete stops before [me]. *)
  let _, _, _ =
    Route.fold_path net ~from:changed salted ~init:me
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

(* Index loops: no walk [optimize_object_ptrs] starts writes the store
   being walked, so every index stays put. *)
let repoint net (node : Node.t) =
  let n = Pointer_store.size node.Node.pointers in
  for i = 0 to n - 1 do
    optimize_object_ptrs net ~changed:node i
  done;
  n

let rec optimize_from net (node : Node.t) ~next_hop i n moved =
  if i >= n then moved
  else begin
    let c = Pointer_store.cols node.Node.pointers in
    match
      Route.peek_first_hop net node
        (Network.salted net c.guid.(i) (Pointer_store.root_idx c i))
    with
    | Some hop when hop.Node.handle = next_hop ->
        optimize_object_ptrs net ~changed:node i;
        optimize_from net node ~next_hop (i + 1) n (moved + 1)
    | _ -> optimize_from net node ~next_hop (i + 1) n moved
  end

let optimize_through net ~(node : Node.t) ~next_hop =
  optimize_from net node ~next_hop 0 (Pointer_store.size node.Node.pointers) 0

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
