type result = {
  server : Node.t option;
  pointer_node : Node.t option;
  walk : Node.t list;
  redirects : int;
}

(* A pointer is usable if unexpired and its server still serves the object. *)
let usable net guid (r : Pointer_store.record) =
  r.expires >= net.Network.clock
  &&
  match Network.find net r.server with
  | Some s -> Node.is_alive s && Node.stores_replica s guid
  | None -> false


(* One pass over the stop node's records: filter for usability and keep the
   closest server, first-seen winning distance ties (the same order the
   filter-then-fold pair produced). *)
(* [@alloc_ok]: one fold closure and a best-so-far pair per stop node —
   this runs once per query, after the walk has stopped. *)
let[@alloc_ok] closest_usable_server net (node : Node.t) guid =
  List.fold_left
    (fun acc (r : Pointer_store.record) ->
      if r.expires < net.Network.clock then acc
      else
        match Network.find net r.server with
        | Some s when Node.is_alive s && Node.stores_replica s guid -> (
            let d = Network.dist net node s in
            match acc with
            | Some (_, bd) when bd <= d -> acc
            | _ -> Some (s, d))
        | _ -> acc)
    None
    (Pointer_store.find_guid node.Node.pointers guid)
  |> Option.map fst

(* The walk only needs to know whether a usable pointer exists at each hop;
   records are examined once, at the stop node.  The usability predicate is
   built once per walk, not per hop.  When the network carries an object
   cache, [stop] (the cache probe, built once per locate) is consulted
   before the pointer store at every hop — a valid cached entry short-cuts
   the rest of the climb. *)
(* [@alloc_ok]: the usability predicate and the fold callback are built
   once per walk (documented above), and the path list is the result. *)
let[@alloc_ok] walk_toward_root ?variant ?exclude ?stop net ~from salted guid =
  let pred = usable net guid in
  Route.fold_path ?variant ?exclude net ~from salted ~init:[]
    ~f:(fun path node ->
      let path = node :: path in
      let cache_hit = match stop with Some p -> p node | None -> false in
      if
        cache_hit
        || Pointer_store.exists_guid_match node.Node.pointers guid ~f:pred
      then `Stop path
      else `Continue path)

(* [@alloc_ok]: a query allocates its result record, the walk/retry
   bookkeeping and the root-set retry list — per locate call; the hop
   work underneath is [Route.fold_path]'s checked path. *)
let[@alloc_ok] rec locate ?variant ?root_idx net ~client guid =
  let cfg = net.Network.config in
  let chosen, retries =
    match root_idx with
    | Some i -> (i, [])
    | None ->
        if cfg.Config.root_set_size = 1 then (0, [])
        else begin
          (* Observation 1: with independent roots, failed queries retry on
             the remaining root-set members *)
          let first = Simnet.Rng.int net.Network.rng cfg.Config.root_set_size in
          let others =
            List.init cfg.Config.root_set_size (fun i -> i)
            |> List.filter (fun i -> i <> first)
          in
          (first, others)
        end
  in
  let root_idx = chosen in
  let retry () =
    let rec go = function
      | [] -> None
      | i :: rest -> (
          let res = locate ?variant ~root_idx:i net ~client guid in
          match res.server with Some _ -> Some res | None -> go rest)
    in
    go retries
  in
  let salted = Network.salted net guid root_idx in
  (* Optional per-node object cache (PR 9).  [probe] is consulted by the
     walk before each hop's pointer store: a valid entry (current epoch,
     alive server still holding the replica) stops the climb and records
     the server handle in [cache_srv]; a stale entry is evicted and the
     climb continues, so a hit can shorten a locate but never change its
     answer's correctness.  With [net.obj_cache = None] (the default)
     every branch below is dead and the walk is byte-identical to the
     uncached code. *)
  let cache = net.Network.obj_cache in
  let cache_key =
    match cache with Some c -> Obj_cache.intern c guid | None -> -1
  in
  let cache_srv = ref (-1) in
  let probe =
    match cache with
    | None -> None
    | Some c ->
        Some
          (fun (node : Node.t) ->
            let t : Simnet.Stats.Tally.t = c.Obj_cache.tally in
            let i = Obj_cache.probe c ~h:node.Node.handle ~key:cache_key in
            if i >= 0 then begin
              let srv_h = Obj_cache.probe_srv c i in
              let s = Network.node_of_handle net srv_h in
              if Node.is_alive s && Node.stores_replica s guid then begin
                t.hits <- t.hits + 1;
                cache_srv := srv_h;
                true
              end
              else begin
                (* names a dead server or one that dropped the replica:
                   degrade to the ordinary climb *)
                Obj_cache.evict_at c i;
                t.stale <- t.stale + 1;
                t.evicts <- t.evicts + 1;
                false
              end
            end
            else if i = -2 then begin
              t.stale <- t.stale + 1;
              t.evicts <- t.evicts + 1;
              false
            end
            else begin
              t.misses <- t.misses + 1;
              false
            end)
  in
  let fill_path rev_path srv_h =
    match cache with
    | None -> ()
    | Some c ->
        Obj_cache.ensure_nodes c net.Network.arena_len;
        let t : Simnet.Stats.Tally.t = c.Obj_cache.tally in
        List.iter
          (fun (n : Node.t) ->
            Obj_cache.insert c ~h:n.Node.handle ~key:cache_key ~server:srv_h
              ~gen:0;
            t.fills <- t.fills + 1)
          rev_path
  in
  let finish (found : Node.t) rev_path redirects =
    match closest_usable_server net found guid with
    | None -> (
        match retry () with
        | Some r -> r
        | None ->
            { server = None; pointer_node = None; walk = List.rev rev_path; redirects })
    | Some server ->
        (* Route through the mesh to the chosen replica's server.  The walk
           (and so every hop charge) matches [Route.route_to_node]; only the
           path list, which nobody reads, is not built. *)
        fill_path rev_path server.Node.handle;
        let server =
          if Node_id.equal server.Node.id found.Node.id then Some server
          else begin
            let target = server.Node.id in
            let reached, (), _ =
              Route.fold_path net ~from:found target ~init:() ~f:(fun () node ->
                  if Node_id.equal node.Node.id target then `Stop ()
                  else `Continue ())
            in
            if Node_id.equal reached.Node.id target then Some reached else None
          end
        in
        {
          server;
          pointer_node = Some found;
          walk = List.rev rev_path;
          redirects;
        }
  in
  (* A walk stopped by the cache: redirect straight to the cached server
     (validated alive + holding the replica by [probe]), refreshing the
     caches along the walked path. *)
  let finish_cached (found : Node.t) rev_path redirects srv_h =
    let server = Network.node_of_handle net srv_h in
    fill_path rev_path srv_h;
    let server =
      if Node_id.equal server.Node.id found.Node.id then Some server
      else begin
        let target = server.Node.id in
        let reached, (), _ =
          Route.fold_path net ~from:found target ~init:() ~f:(fun () node ->
              if Node_id.equal node.Node.id target then `Stop ()
              else `Continue ())
        in
        if Node_id.equal reached.Node.id target then Some reached else None
      end
    in
    match server with
    | Some _ ->
        { server; pointer_node = Some found; walk = List.rev rev_path; redirects }
    | None -> (
        match retry () with
        | Some r -> r
        | None ->
            {
              server = None;
              pointer_node = Some found;
              walk = List.rev rev_path;
              redirects;
            })
  in
  let final, rev_path, stopped =
    walk_toward_root ?variant ?stop:probe net ~from:client salted guid
  in
  let fallback res = match retry () with Some r -> r | None -> res in
  if stopped then
    if !cache_srv >= 0 then finish_cached final rev_path 0 !cache_srv
    else finish final rev_path 0
  else begin
    match final.Node.status with
    | Node.Inserting -> (
        (* Figure 10: the inserting node bounces the request to its
           pre-insertion surrogate, which routes as if the new node were
           absent. *)
        match final.Node.surrogate_hint with
        | Some hint_id -> (
            match Network.find net hint_id with
            | Some hint when Node.is_alive hint ->
                Network.charge net final hint;
                cache_srv := -1;
                let final2, rev2, stopped2 =
                  walk_toward_root ?variant ~exclude:final.Node.id ?stop:probe
                    net ~from:hint salted guid
                in
                if stopped2 then
                  if !cache_srv >= 0 then
                    finish_cached final2 (rev2 @ rev_path) 1 !cache_srv
                  else finish final2 (rev2 @ rev_path) 1
                else
                  fallback
                    {
                      server = None;
                      pointer_node = None;
                      walk = List.rev (rev2 @ rev_path);
                      redirects = 1;
                    }
            | _ ->
                fallback
                  { server = None; pointer_node = None; walk = List.rev rev_path; redirects = 0 })
        | None ->
            fallback
              { server = None; pointer_node = None; walk = List.rev rev_path; redirects = 0 })
    | _ ->
        fallback
          { server = None; pointer_node = None; walk = List.rev rev_path; redirects = 0 }
  end

let exists net ~client guid = Option.is_some (locate net ~client guid).server
