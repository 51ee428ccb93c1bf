type pointer_gap = {
  guid : Node_id.t;
  server : Node_id.t;
  missing_at : Node_id.t;
}

let check_property4 net =
  Network.without_charging net (fun () ->
      let cfg = net.Network.config in
      let gaps = ref [] in
      List.iter
        (fun (server : Node.t) ->
          Node_id.Tbl.iter
            (fun guid () ->
              for root_idx = 0 to cfg.Config.root_set_size - 1 do
                let salted = Network.salted net guid root_idx in
                let _, _, _ =
                  Route.fold_path net ~from:server salted ~init:()
                    ~f:(fun () hop ->
                      let ps = hop.Node.pointers in
                      let srv = server.Node.handle in
                      let i = Pointer_store.find ps ~guid ~server:srv ~root_idx in
                      if i < 0 || (Pointer_store.cols ps).expires.(i) < net.Network.clock
                      then
                        gaps :=
                          { guid; server = server.Node.id; missing_at = hop.Node.id }
                          :: !gaps;
                      `Continue ())
                in
                ()
              done)
            server.Node.replicas)
        (Network.alive_nodes net);
      !gaps)

let roots_agree net guid ~samples =
  Network.without_charging net (fun () ->
      let oracle = Network.surrogate_oracle net guid in
      let ok = ref true in
      for _ = 1 to samples do
        let from = Network.random_alive net in
        let info = Route.route_to_root net ~from guid in
        if not (Node_id.equal info.Route.root.Node.id oracle.Node.id) then ok := false
      done;
      !ok)

let reachable_everywhere net guid =
  Network.without_charging net (fun () ->
      List.for_all
        (fun client -> Locate.exists net ~client guid)
        (Network.alive_nodes net))

let availability net ~guids ~samples =
  match guids with
  | [] -> 1.0
  | _ :: _ ->
    Network.without_charging net (fun () ->
        let hits = ref 0 in
        for _ = 1 to samples do
          let client = Network.random_alive net in
          let guid = Simnet.Rng.pick_list net.Network.rng guids in
          if Locate.exists net ~client guid then incr hits
        done;
        float_of_int !hits /. float_of_int samples)
