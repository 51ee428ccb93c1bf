(* Differential tests for the packed insertion pipeline.

   The scratch-based hot path (Insert.insert: packed multicast + packed
   nearest-neighbor descent + slot-walk preliminary copy) and the original
   list-and-hashtable pipeline (Oracle.Insert.insert) drive two networks
   built from the same seed, metric and id/addr/gateway sequence through
   identical insertion, voluntary-delete and fail-then-repair churn.  Every
   per-insertion report (surrogate, shared prefix, multicast reach, pointer
   transfers, descent trace, exact cost) and, at the end, every
   routing-table slot, every level's backpointer set and every mesh
   nearest-neighbor answer must agree exactly — across several seeds and
   on both a uniform-square and a transit-stub metric. *)

open Tapestry

let config = Config.default

let random_id rng =
  Node_id.random ~base:config.Config.base ~len:config.Config.id_digits rng

let entry_str (e : Routing_table.entry) =
  Printf.sprintf "%s@%h" (Node_id.to_string e.Routing_table.id)
    e.Routing_table.dist

let slot_str entries = String.concat "," (List.map entry_str entries)

let trace_str (t : Nearest_neighbor.trace) =
  Printf.sprintf "levels=%d contacted=%d updated=%d holes=%d"
    t.Nearest_neighbor.levels_walked t.Nearest_neighbor.nodes_contacted
    t.Nearest_neighbor.tables_updated t.Nearest_neighbor.holes_backfilled

let cost_str (c : Simnet.Cost.t) =
  Printf.sprintf "msgs=%d hops=%d latency=%h" c.Simnet.Cost.messages
    c.Simnet.Cost.hops c.Simnet.Cost.latency

let report_str (r : Insert.report) =
  Printf.sprintf "surrogate=%s shared=%d reached=%d transferred=%d %s %s"
    (Node_id.to_string r.Insert.surrogate.Node.id)
    r.Insert.shared_prefix r.Insert.multicast_reached
    r.Insert.pointers_transferred
    (trace_str r.Insert.nn_trace)
    (cost_str r.Insert.cost)

let check_networks_agree ~ctx net_p net_o =
  List.iter
    (fun (np : Node.t) ->
      let no = Network.find_exn net_o np.Node.id in
      let tp = np.Node.table and to_ = no.Node.table in
      for level = 0 to Routing_table.levels tp - 1 do
        for digit = 0 to config.Config.base - 1 do
          Alcotest.(check string)
            (Printf.sprintf "%s: node %s slot (%d,%d)" ctx
               (Node_id.to_string np.Node.id)
               level digit)
            (slot_str (Routing_table.slot to_ ~level ~digit))
            (slot_str (Routing_table.slot tp ~level ~digit))
        done
      done;
      let nn net (from : Node.t) =
        match Nearest_neighbor.nearest_neighbor net ~from with
        | Some n -> Node_id.to_string n.Node.id
        | None -> "-"
      in
      Alcotest.(check string)
        (Printf.sprintf "%s: nearest neighbor of %s" ctx
           (Node_id.to_string np.Node.id))
        (nn net_o no) (nn net_p np))
    (Network.alive_nodes net_p);
  (* backpointer sets are unordered: compare them sorted, on every
     registered node (failed ones keep theirs until repaired) *)
  let bps (n : Node.t) ~level =
    Routing_table.backpointers n.Node.table ~level
    |> List.map Node_id.to_string |> List.sort String.compare
    |> String.concat ","
  in
  Network.iter_registered net_p (fun (np : Node.t) ->
      let no = Network.find_exn net_o np.Node.id in
      for level = 0 to Routing_table.levels np.Node.table - 1 do
        Alcotest.(check string)
          (Printf.sprintf "%s: node %s level-%d backpointers" ctx
             (Node_id.to_string np.Node.id)
             level)
          (bps no ~level) (bps np ~level)
      done)

(* Build two identical single-bootstrap networks and run the same churn
   script through the packed pipeline on one and the oracle pipeline on the
   other. *)
let drive_pair ~ctx ~seed metric ~inserts =
  let ext = Simnet.Rng.create ((seed * 7919) + 17) in
  let mk () = Network.create ~seed config metric in
  let net_p = mk () and net_o = mk () in
  let boot_id = random_id ext in
  let bootstrap net =
    let b = Node.create config ~id:boot_id ~addr:0 in
    b.Node.status <- Node.Active;
    Network.register net b
  in
  bootstrap net_p;
  bootstrap net_o;
  let alive = ref [ boot_id ] in
  for i = 1 to inserts do
    let id = random_id ext in
    if Network.find net_p id = None then begin
      let gw_id = Simnet.Rng.pick_list ext !alive in
      let adaptive = i mod 8 = 0 in
      let rp =
        Insert.insert ~id ~adaptive net_p
          ~gateway:(Network.find_exn net_p gw_id)
          ~addr:i
      in
      let ro =
        Oracle.Insert.insert ~id ~adaptive net_o
          ~gateway:(Network.find_exn net_o gw_id)
          ~addr:i
      in
      Alcotest.(check string)
        (Printf.sprintf "%s: insert %d report" ctx i)
        (report_str ro) (report_str rp);
      alive := id :: !alive;
      (* interleave voluntary departures so later joins run against a
         churned mesh *)
      if i mod 5 = 0 && List.length !alive > 6 then begin
        let victim =
          Simnet.Rng.pick_list ext
            (List.filter (fun v -> not (Node_id.equal v boot_id)) !alive)
        in
        ignore (Delete.voluntary net_p (Network.find_exn net_p victim));
        ignore (Delete.voluntary net_o (Network.find_exn net_o victim));
        alive := List.filter (fun v -> not (Node_id.equal v victim)) !alive
      end
      else if i mod 7 = 0 && List.length !alive > 6 then begin
        (* a silent failure, then every survivor runs the §5 repair for
           the dead link (a no-op where it held none) *)
        let victim =
          Simnet.Rng.pick_list ext
            (List.filter (fun v -> not (Node_id.equal v boot_id)) !alive)
        in
        List.iter
          (fun net ->
            Delete.fail net (Network.find_exn net victim);
            List.iter
              (fun owner -> Delete.on_dead_repair net ~owner ~dead:victim)
              (Network.alive_nodes net))
          [ net_p; net_o ];
        alive := List.filter (fun v -> not (Node_id.equal v victim)) !alive
      end
    end
  done;
  check_networks_agree ~ctx net_p net_o

let test_uniform () =
  List.iter
    (fun seed ->
      let rng = Simnet.Rng.create seed in
      let metric =
        Simnet.Topology.generate Simnet.Topology.Uniform_square ~n:80 ~rng
      in
      drive_pair
        ~ctx:(Printf.sprintf "uniform seed %d" seed)
        ~seed metric ~inserts:48)
    [ 11; 23; 47 ]

let test_transit_stub () =
  List.iter
    (fun seed ->
      let rng = Simnet.Rng.create seed in
      let ts = Simnet.Transit_stub.generate Simnet.Transit_stub.default_params ~rng in
      let metric = Simnet.Transit_stub.metric ts in
      drive_pair
        ~ctx:(Printf.sprintf "transit-stub seed %d" seed)
        ~seed metric ~inserts:48)
    [ 5; 29 ]

let () =
  Alcotest.run "insert_packed"
    [
      ( "differential",
        [
          Alcotest.test_case "packed vs oracle churn (uniform)" `Quick
            test_uniform;
          Alcotest.test_case "packed vs oracle churn (transit-stub)" `Quick
            test_transit_stub;
        ] );
    ]
