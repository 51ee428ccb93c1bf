type result = {
  server : Node.t option;
  pointer_node : Node.t option;
  walk : Node.t list;
  redirects : int;
}

(* A pointer is usable if unexpired and its server still serves the object. *)
let usable net guid (c : Pointer_store.cols) i =
  c.expires.(i) >= net.Network.clock
  &&
  let s = Network.node_of_handle net (Pointer_store.server c i) in
  Node.is_alive s && Node.stores_replica s guid

(* One pass over the node's records of the GUID, newest first: keep the
   closest usable server, first-seen winning distance ties. *)
(* [@alloc_ok]: one scan closure and a best-so-far cell per stop node —
   this runs once per query, after the walk has stopped. *)
let[@alloc_ok] closest_usable_server net (node : Node.t) guid =
  let best = ref None and best_d = ref infinity in
  Pointer_store.iter_guid node.Node.pointers guid ~f:(fun c i ->
      if usable net guid c i then begin
        let s = Network.node_of_handle net (Pointer_store.server c i) in
        let d = Network.dist net node s in
        if Option.is_none !best || d < !best_d then begin
          best := Some s;
          best_d := d
        end
      end);
  !best

(* The walk only needs to know whether a usable pointer exists at each hop;
   records are examined once, at the stop node.  The usability predicate is
   built once per walk, not per hop. *)
(* [@alloc_ok]: the usability predicate and the fold callback are built
   once per walk (documented above), and the path list is the result. *)
let[@alloc_ok] walk_toward_root ?variant ?exclude net ~from salted guid =
  let pred = usable net guid in
  Route.fold_path ?variant ?exclude net ~from salted ~init:[]
    ~f:(fun path node ->
      let path = node :: path in
      if Pointer_store.exists_guid_match node.Node.pointers guid ~f:pred then
        `Stop path
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
  (* No usable pointer on this root's walk: try the other roots. *)
  let miss rev_path redirects =
    match retry () with
    | Some r -> r
    | None ->
        { server = None; pointer_node = None; walk = List.rev rev_path; redirects }
  in
  let finish (found : Node.t) rev_path redirects =
    match closest_usable_server net found guid with
    | None -> miss rev_path redirects
    | Some server ->
        (* Route through the mesh to the chosen replica's server.  The walk
           (and so every hop charge) matches [Route.route_to_node]; only the
           path list, which nobody reads, is not built. *)
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
  let final, rev_path, stopped =
    walk_toward_root ?variant net ~from:client salted guid
  in
  if stopped then finish final rev_path 0
  else
    let h = final.Node.surrogate_hint in
    match final.Node.status with
    | Node.Inserting
      when h <> Node.no_handle && Node.is_alive (Network.node_of_handle net h) ->
        (* Figure 10: the inserting node bounces the request to its
           pre-insertion surrogate, which routes as if the new node were
           absent. *)
        let hint = Network.node_of_handle net h in
        Network.charge net final hint;
        let final2, rev2, stopped2 =
          walk_toward_root ?variant ~exclude:final.Node.handle net ~from:hint
            salted guid
        in
        let rev_path = rev2 @ rev_path in
        if stopped2 then finish final2 rev_path 1 else miss rev_path 1
    | _ -> miss rev_path 0

let exists net ~client guid = Option.is_some (locate net ~client guid).server
