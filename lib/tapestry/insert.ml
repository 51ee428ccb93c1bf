type report = {
  node : Node.t;
  surrogate : Node.t;
  shared_prefix : int;
  multicast_reached : int;
  pointers_transferred : int;
  nn_trace : Nearest_neighbor.trace;
  cost : Simnet.Cost.t;
}

type staged = {
  new_node : Node.t;
  surrogate : Node.t;
  shared : int;
  acc : Simnet.Cost.acc;
      (* this insertion's own charges, accumulated stage by stage: each
         stage runs under [Network.measure], so charges from other staged
         insertions interleaved at stage boundaries are never attributed
         here (they were under the old begin/end snapshot diff) *)
  adaptive : bool;
  mutable reached : Node.t list;
  mutable transferred : int;
}

let staged_node s = s.new_node

(* GetPrelimNeighborTable: bulk-copy the surrogate's table entries that share
   a prefix with the new node, so it can route immediately.  The surrogate's
   slots are read directly (level/digit/k ascending — the same entry order
   [iter_entries] produced) and candidates resolve through their stored
   arena handle; nothing here mutates the surrogate's slots, so no snapshot
   is needed. *)
let copy_preliminary_table net ~(new_node : Node.t) ~(surrogate : Node.t) =
  Network.charge net surrogate new_node;
  ignore
    (Network.offer_link_all_levels net ~owner:new_node ~candidate:surrogate);
  let table = surrogate.Node.table in
  for level = 0 to Routing_table.levels table - 1 do
    for digit = 0 to Routing_table.base table - 1 do
      for k = 0 to Routing_table.slot_len table ~level ~digit - 1 do
        let cand =
          Network.node_of_handle net
            (Routing_table.slot_handle table ~level ~digit ~k)
        in
        if Node.is_alive cand then
          ignore
            (Network.offer_link_all_levels net ~owner:new_node ~candidate:cand)
      done
    done
  done

(* LinkAndXferRoot, run at every alpha-node by the insertion multicast:
   adopt the new node where it improves or fills the local table, then push
   any object pointers whose surrogate path now goes through it. *)
let link_and_xfer_root net ~(new_node : Node.t) ~staged (x : Node.t) =
  if not (Node_id.equal x.Node.id new_node.Node.id) then begin
    ignore (Network.offer_link_all_levels net ~owner:x ~candidate:new_node);
    staged.transferred <-
      staged.transferred
      + Maintenance.optimize_through net ~node:x ~next_hop:new_node.Node.handle
  end

(* [@alloc_ok] on the staging pipeline below: an insertion allocates its
   [staged] record, the per-stage measurement thunks, the watch list and
   the final report — all once per join; the traffic they drive runs on
   the allocation-checked route/multicast/nearest-neighbor paths. *)
let[@alloc_ok] stage_surrogate ?id ?(adaptive = false) net ~gateway ~addr =
  let cfg = net.Network.config in
  if not (Node.is_alive gateway) then
    invalid_arg "Insert.stage_surrogate: dead gateway";
  let id = match id with Some id -> id | None -> Network.fresh_id net in
  let new_node = Node.create cfg ~id ~addr in
  Network.register net new_node;
  let (surrogate, shared), cost =
    Network.measure net (fun () ->
        (* 1. AcquirePrimarySurrogate: route from the gateway toward the new
           ID as if it were an object. *)
        Network.charge net new_node gateway;
        let info = Route.route_to_root net ~from:gateway id in
        let surrogate = info.Route.root in
        new_node.Node.surrogate_hint <- surrogate.Node.handle;
        let shared = Node_id.common_prefix_len id surrogate.Node.id in
        (* 2. Preliminary table. *)
        copy_preliminary_table net ~new_node ~surrogate;
        (surrogate, shared))
  in
  let acc = Simnet.Cost.make () in
  Simnet.Cost.add acc cost;
  { new_node; surrogate; shared; acc; adaptive; reached = []; transferred = 0 }

let[@alloc_ok] stage_multicast net staged =
  let cfg = net.Network.config in
  let { new_node; surrogate; shared; _ } = staged in
  (* 3. Acknowledged multicast over alpha with LinkAndXferRoot and the
     Figure 11 watch list (holes the new node still has at levels the
     multicast recipients can certify). *)
  let watchlist =
    Array.init (shared + 1) (fun level ->
        Array.init cfg.Config.base (fun digit ->
            Routing_table.is_hole new_node.Node.table ~level ~digit))
  in
  let on_watch_hit ~level ~digit:_ (filler : Node.t) =
    ignore (Network.offer_link net ~owner:new_node ~level ~candidate:filler)
  in
  let prefix = Node_id.digits new_node.Node.id in
  let mcast, cost =
    Network.measure net (fun () ->
        Multicast.run ~on_watch_hit ~watchlist net ~start:surrogate ~prefix
          ~len:shared
          ~apply:(link_and_xfer_root net ~new_node ~staged))
  in
  Simnet.Cost.add staged.acc cost;
  staged.reached <- mcast.Multicast.reached

let[@alloc_ok] stage_acquire net staged =
  let { new_node; surrogate; shared; acc; adaptive; reached; _ } = staged in
  (* 4. Optimize the table with the nearest-neighbor descent, seeded by the
     multicast's alpha list. *)
  let nn_trace, cost =
    Network.measure net (fun () ->
        Nearest_neighbor.acquire_neighbor_table ~adaptive net ~new_node
          ~surrogate ~initial_list:reached)
  in
  Simnet.Cost.add acc cost;
  Network.activate net new_node;
  {
    node = new_node;
    surrogate;
    shared_prefix = shared;
    multicast_reached = List.length reached;
    pointers_transferred = staged.transferred;
    nn_trace;
    cost = Simnet.Cost.snapshot acc;
  }

let insert ?id ?adaptive net ~gateway ~addr =
  let staged = stage_surrogate ?id ?adaptive net ~gateway ~addr in
  stage_multicast net staged;
  stage_acquire net staged

(* [@alloc_ok]: cold; allocates the three stage closures. *)
let[@alloc_ok] push_staged events net ~addr ~delays =
  let d0, d1, d2 = delays in
  Simnet.Heap.push events d0 (fun t ->
      let gateway = Network.random_alive net in
      let staged = stage_surrogate net ~gateway ~addr in
      Simnet.Heap.push events (t +. d1) (fun t ->
          stage_multicast net staged;
          Simnet.Heap.push events (t +. d2) (fun _ ->
              ignore (stage_acquire net staged))))

(* [@alloc_ok]: network construction; allocates the report list. *)
let[@alloc_ok] build_incremental ?seed cfg metric ~addrs =
  let net = Network.create ?seed cfg metric in
  match addrs with
  | [] -> (net, [])
  | first :: rest ->
      (* Bootstrap node: sole participant, trivially consistent. *)
      let id = Network.fresh_id net in
      let bootstrap = Node.create cfg ~id ~addr:first in
      bootstrap.Node.status <- Node.Active;
      Network.register net bootstrap;
      let reports =
        List.map
          (fun addr ->
            let gateway = Network.random_alive net in
            insert net ~gateway ~addr)
          rest
      in
      (net, reports)
