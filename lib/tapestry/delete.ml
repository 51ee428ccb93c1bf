type stats = {
  notified : int;
  pointers_rerouted : int;
  objects_rerooted : int;
}

(* [@alloc_ok]: the neighbour list, its iteration closure and the
   offered cell, once per repaired hole. *)
let[@alloc_ok] repair_hole net ~(owner : Node.t) ~level ~digit =
  if not (Routing_table.is_hole owner.Node.table ~level ~digit) then true
  else begin
    (* Local search: ask every remaining neighbor that shares [level] digits
       for its own (prefix, digit) entries.  The list is taken before the
       offers start filling the hole. *)
    let offered = ref false in
    List.iter
      (fun (peer : Node.t) ->
        Network.charge_aside net owner peer;
        Network.charge_aside net peer owner;
        let pt = peer.Node.table in
        for k = 0 to Routing_table.slot_len pt ~level ~digit - 1 do
          let cand =
            Network.node_of_handle net (Routing_table.slot_handle pt ~level ~digit ~k)
          in
          if Network.offer_link net ~owner ~level ~candidate:cand then offered := true
        done)
      (Network.live_neighbours net owner ~level);
    if !offered then true
    else
      (* Routed probe: surrogate-route toward an ID with the wanted prefix. *)
      match Route.probe_hole net ~from:owner ~owner ~level ~digit with
      | Some root -> Network.offer_link net ~owner ~level ~candidate:root
      | None -> false
  end

(* [@alloc_ok]: the dropped-level list and its closure, once per dead
   link repaired. *)
let[@alloc_ok] on_dead_repair net ~(owner : Node.t) ~dead =
  List.iter
    (fun level ->
      let digit = Node_id.digit dead level in
      if Routing_table.is_hole owner.Node.table ~level ~digit then
        ignore (repair_hole net ~owner ~level ~digit))
    (Network.drop_link net ~owner ~target:dead);
  ignore (Maintenance.repoint net owner : int)

(* Repeats (a node held at several levels) are skipped with the visit
   stamps of the network's scratch. *)
(* [@alloc_ok]: the result list and the table walk's closure, once per
   repaired owner. *)
let[@alloc_ok] dead_neighbours net (owner : Node.t) =
  let s = net.Network.scratch and acc = ref [] in
  Scratch.ensure_handles s ~n:net.Network.arena_len;
  let gen = Scratch.bump_visit s in
  Routing_table.iter_handles owner.Node.table (fun ~level:_ h ->
      let n = Network.node_of_handle net h in
      if (not (Node.is_alive n)) && s.Scratch.stamp.(h) <> gen then begin
        s.Scratch.stamp.(h) <- gen;
        acc := n :: !acc
      end);
  List.rev !acc

(* Lazy repair of one owner's dead routing entries, Section 5.2 style:
   the rich on_dead handler (drop link, promote secondary, fill holes,
   re-push pointers) for each distinct dead neighbour. *)
(* [@alloc_ok]: the iteration closure, once per repaired owner. *)
let[@alloc_ok] repair_owner net (owner : Node.t) =
  if not (Node.is_alive owner) then 0
  else begin
    let dead = dead_neighbours net owner in
    List.iter (fun (d : Node.t) -> on_dead_repair net ~owner ~dead:d.Node.id) dead;
    List.length dead
  end

let fail net node = Network.mark_dead net node

(* [@alloc_ok]: per departure — the replica and holder lists, each
   holder's moving-index list, the iteration closures, the re-root fold
   callbacks and the stats record. *)
let[@alloc_ok] voluntary net (node : Node.t) =
  (match node.Node.status with
  | Node.Active -> ()
  | _ -> invalid_arg "Delete.voluntary: node is not active");
  Network.begin_leaving net node;
  let cfg = net.Network.config in
  let me = node.Node.handle in
  (* The data leaves with the node: withdraw its replicas first. *)
  let replicas = Node_id.Tbl.fold (fun g () acc -> g :: acc) node.Node.replicas [] in
  List.iter (fun guid -> Publish.unpublish net ~server:node guid) replicas;
  (* Phase 1: notify backpointer holders with per-level replacements.  The
     holders are taken up front, top level down and newest first (the
     order [Routing_table.all_backpointers] lists by ID, which repair
     outcomes follow): each notification drops links, which closes gaps
     in these vectors. *)
  let table = node.Node.table in
  let holders = ref [] in
  for level = 0 to Routing_table.levels table - 1 do
    for k = 0 to Routing_table.backpointer_len table ~level - 1 do
      let h = Routing_table.backpointer_handle table ~level ~k in
      holders := (level, Network.node_of_handle net h) :: !holders
    done
  done;
  let notified = ref 0 in
  let rerouted = ref 0 in
  List.iter
    (fun (level, (holder : Node.t)) ->
      if Node.is_alive holder then begin
        incr notified;
        Network.charge net node holder;
        (* Records at the holder that route through the leaver must move;
           capture their indices before the link goes away.  Nothing until
           their re-walks writes the holder's store, and no re-walk does,
           so the indices stay valid. *)
        let ps = holder.Node.pointers in
        let moving = ref [] in
        for i = 0 to Pointer_store.size ps - 1 do
          let c = Pointer_store.cols ps in
          match
            Route.peek_first_hop net holder
              (Network.salted net c.guid.(i) (Pointer_store.root_idx c i))
          with
          | Some hop when hop.Node.handle = me -> moving := i :: !moving
          | _ -> ()
        done;
        (* Replacement candidates: the leaver's own slot for its digit at
           this level holds exactly the nodes that can stand in for it
           (offer_link refuses the leaver itself and dead nodes). *)
        let digit = Node_id.digit node.Node.id level in
        for k = 0 to Routing_table.slot_len table ~level ~digit - 1 do
          let h = Routing_table.slot_handle table ~level ~digit ~k in
          let cand = Network.node_of_handle net h in
          ignore (Network.offer_link net ~owner:holder ~level ~candidate:cand)
        done;
        ignore (Network.drop_link net ~owner:holder ~target:node.Node.id);
        if Routing_table.is_hole holder.Node.table ~level ~digit then
          ignore (repair_hole net ~owner:holder ~level ~digit);
        List.iter
          (fun i ->
            incr rerouted;
            Maintenance.optimize_object_ptrs net ~changed:holder i)
          (List.rev !moving)
      end)
    !holders;
  (* Phase 2: re-root the objects this node is root for, with itself masked
     out of every lookup.  The walks store only at hops other than this
     node, so its indices stay valid. *)
  let rerooted = ref 0 in
  let ps = node.Node.pointers in
  for i = 0 to Pointer_store.size ps - 1 do
    let c = Pointer_store.cols ps in
    let guid = c.guid.(i)
    and server = Pointer_store.server c i
    and root_idx = Pointer_store.root_idx c i in
    let salted = Network.salted net guid root_idx in
    if Option.is_none (Route.peek_first_hop net node salted) then begin
      incr rerooted;
      let expires = net.Network.clock +. cfg.Config.pointer_ttl in
      ignore
        (Route.fold_path ~exclude:me net ~from:node salted ~init:me
           ~f:(fun sender hop ->
             if hop.Node.handle <> me then
               ignore
                 (Pointer_store.store hop.Node.pointers ~guid ~server ~root_idx
                    ~previous:sender ~expires);
             `Continue hop.Node.handle))
    end
  done;
  (* Final phase: sever remaining forward links and disconnect. *)
  Routing_table.iter_handles table (fun ~level h ->
      if h <> me then begin
        let peer = Network.node_of_handle net h in
        Routing_table.remove_backpointer ~handle:me peer.Node.table ~level
          node.Node.id;
        (* defensive: if the peer still lists us, drop that link too *)
        ignore (Network.drop_link net ~owner:peer ~target:node.Node.id)
      end);
  Network.mark_dead net node;
  { notified = !notified; pointers_rerouted = !rerouted; objects_rerooted = !rerooted }

(* [@alloc_ok]: the core-node, dead-neighbour and hole lists and their
   closures, once per network-wide sweep. *)
let[@alloc_ok] repair_all_holes net =
  let filled = ref 0 in
  List.iter
    (fun (owner : Node.t) ->
      (* purge dead entries first so holes are visible *)
      List.iter
        (fun (d : Node.t) -> ignore (Routing_table.remove owner.Node.table d.Node.handle))
        (dead_neighbours net owner);
      List.iter
        (fun (level, digit) ->
          if repair_hole net ~owner ~level ~digit then incr filled)
        (Routing_table.holes owner.Node.table))
    (Network.core_nodes net);
  !filled
