open Tapestry
module Stats = Simnet.Stats
module Cost = Simnet.Cost
module Rng = Simnet.Rng
module Topology = Simnet.Topology
module Metric = Simnet.Metric
module Parallel = Simnet.Parallel

type mode = Quick | Full

let pick mode ~quick ~full = match mode with Quick -> quick | Full -> full

let f = Stats.fmt_float

let log2 x = log (float_of_int (max 2 x)) /. log 2.

(* Build a Tapestry network incrementally on a fresh topology. *)
let build_tapestry ?(cfg = Config.default) ~seed ~kind ~n () =
  let rng = Rng.create seed in
  let metric = Topology.generate kind ~n ~rng in
  let addrs = List.init n (fun i -> i) in
  let net, reports = Insert.build_incremental ~seed:(seed + 1) cfg metric ~addrs in
  (net, metric, reports)

(* Mean over the later joins, where the network is at its final scale. *)
let late_mean reports extract =
  let arr = Array.of_list reports in
  let n = Array.length arr in
  let from = n / 2 in
  let vals = ref [] in
  for i = from to n - 1 do
    vals := extract arr.(i) :: !vals
  done;
  Stats.mean !vals

(* Measured stretch of one Tapestry locate. *)
let tapestry_stretch ?variant net (q : Workload.query) =
  let opt = Workload.optimal_distance net ~client:q.client q.obj in
  let res, cost =
    Network.measure net (fun () -> Locate.locate ?variant net ~client:q.client q.obj.guid)
  in
  match res.Locate.server with
  | Some _ when opt > 1e-12 -> Some (cost.Cost.latency /. opt)
  | Some _ -> Some 1.0
  | None -> None

(* ------------------------------------------------------------------ *)
(* E1: Table 1, measured                                               *)
(* ------------------------------------------------------------------ *)

let table1 ?(seed = 42) ?(domains = 1) mode =
  let sizes = pick mode ~quick:[ 64; 128 ] ~full:[ 64; 128; 256; 512; 1024 ] in
  let t =
    Stats.Table.create ~title:"E1 / Table 1 (measured): object location systems"
      ~columns:
        [ "scheme"; "n"; "insert msgs"; "space/node"; "lookup hops"; "load gini" ]
  in
  (* Sizes are independent (each builds its own networks and rngs), so they
     run as parallel tasks; rows join back in size order, keeping the table
     identical whatever [domains] is. *)
  let row_groups =
    Parallel.map_list ~domains sizes ~f:(fun _ n ->
      let rows = ref [] in
      let emit r = rows := r :: !rows in
      (* --- Tapestry --- *)
      let net, metric, reports = build_tapestry ~seed ~kind:Uniform_square ~n () in
      let insert_msgs = late_mean reports (fun r -> float_of_int r.Insert.cost.Cost.messages) in
      let space =
        Network.alive_nodes net
        |> List.map (fun (nd : Node.t) ->
               float_of_int (Routing_table.entry_count nd.Node.table))
        |> Stats.mean
      in
      let objects = Workload.place_objects net ~count:n ~replicas:1 in
      let queries = Workload.uniform_queries net ~objects ~count:200 in
      let hops =
        List.filter_map
          (fun (q : Workload.query) ->
            let res, cost =
              Network.measure net (fun () ->
                  Locate.locate net ~client:q.client q.obj.guid)
            in
            if Option.is_some res.Locate.server then Some (float_of_int cost.Cost.hops)
            else None)
          queries
        |> Stats.mean
      in
      let pointer_loads =
        Network.alive_nodes net
        |> List.map (fun (nd : Node.t) -> float_of_int (Pointer_store.size nd.Node.pointers))
      in
      emit
        [ "tapestry"; string_of_int n; f insert_msgs; f space; f hops;
          f (Stats.gini pointer_loads) ];
      (* --- Chord on the same metric --- *)
      let ch = Baselines.Chord.create ~seed:(seed + 2) ~m:24 ~succ_list:4 metric in
      let rng = Rng.create (seed + 3) in
      let join_costs = ref [] in
      ignore (Baselines.Chord.bootstrap ch ~addr:0);
      for addr = 1 to n - 1 do
        let gw = Baselines.Chord.random_node ch in
        let before = Cost.snapshot (Baselines.Chord.cost ch) in
        ignore (Baselines.Chord.join ch ~gateway:gw ~addr);
        let d = Cost.diff (Baselines.Chord.cost ch) before in
        if addr > n / 2 then join_costs := float_of_int d.Cost.messages :: !join_costs
      done;
      Baselines.Chord.stabilize_all ch ~rounds:2;
      let chord_keys =
        List.init n (fun i -> (i * 7919) + Rng.int rng 1000)
      in
      List.iter
        (fun k ->
          let server = Baselines.Chord.random_node ch in
          Baselines.Chord.publish ch ~server ~guid_key:(k land ((1 lsl 24) - 1)))
        chord_keys;
      let chord_hops =
        List.filteri (fun i _ -> i < 200) chord_keys
        |> List.map (fun k ->
               let from = Baselines.Chord.random_node ch in
               let _, hops =
                 Baselines.Chord.lookup ch ~from (k land ((1 lsl 24) - 1))
               in
               float_of_int hops)
        |> Stats.mean
      in
      let chord_space =
        Baselines.Chord.nodes ch
        |> List.map (fun nd -> float_of_int (Baselines.Chord.table_size nd))
        |> Stats.mean
      in
      emit
        [ "chord"; string_of_int n; f (Stats.mean !join_costs); f chord_space;
          f chord_hops; "-" ];
      (* --- Pastry on the same metric --- *)
      let pa = Baselines.Pastry.create ~seed:(seed + 4) Config.default metric in
      let pastry_join = ref [] in
      ignore (Baselines.Pastry.bootstrap pa ~addr:0);
      for addr = 1 to n - 1 do
        let gw = Baselines.Pastry.random_node pa in
        let before = Cost.snapshot (Baselines.Pastry.cost pa) in
        ignore (Baselines.Pastry.join pa ~gateway:gw ~addr);
        let d = Cost.diff (Baselines.Pastry.cost pa) before in
        if addr > n / 2 then pastry_join := float_of_int d.Cost.messages :: !pastry_join
      done;
      let pastry_hops =
        List.init 200 (fun _ ->
            let from = Baselines.Pastry.random_node pa in
            let guid =
              Node_id.random ~base:Config.default.Config.base
                ~len:Config.default.Config.id_digits net.Network.rng
            in
            let _, h = Baselines.Pastry.route pa ~from guid in
            float_of_int h)
        |> Stats.mean
      in
      let pastry_space =
        Baselines.Pastry.nodes pa
        |> List.map (fun nd -> float_of_int (Baselines.Pastry.table_size nd))
        |> Stats.mean
      in
      emit
        [ "pastry"; string_of_int n; f (Stats.mean !pastry_join); f pastry_space;
          f pastry_hops; "-" ];
      (* --- CAN on the same metric --- *)
      let ca = Baselines.Can.create ~seed:(seed + 5) metric in
      let can_join = ref [] in
      ignore (Baselines.Can.bootstrap ca ~addr:0);
      for addr = 1 to n - 1 do
        let gw = Baselines.Can.random_node ca in
        let before = Cost.snapshot (Baselines.Can.cost ca) in
        ignore (Baselines.Can.join ca ~gateway:gw ~addr);
        let d = Cost.diff (Baselines.Can.cost ca) before in
        if addr > n / 2 then can_join := float_of_int d.Cost.messages :: !can_join
      done;
      let can_hops =
        List.init 200 (fun i ->
            let from = Baselines.Can.random_node ca in
            let _, h = Baselines.Can.route ca ~from (Baselines.Can.point_of_key ca (i * 37)) in
            float_of_int h)
        |> Stats.mean
      in
      let can_space =
        Baselines.Can.nodes ca
        |> List.map (fun nd -> float_of_int (Baselines.Can.table_size nd))
        |> Stats.mean
      in
      emit
        [ "can (d=2)"; string_of_int n; f (Stats.mean !can_join); f can_space;
          f can_hops; "-" ];
      (* --- Central directory --- *)
      let dir =
        Baselines.Central_directory.create ~directory_addr:(n / 2) metric
      in
      List.iteri
        (fun i _ -> Baselines.Central_directory.publish dir ~server_addr:(i mod n) ~guid_key:i)
        (List.init n (fun i -> i));
      emit
        [ "central-dir"; string_of_int n; "1";
          Printf.sprintf "%d@dir" (Baselines.Central_directory.directory_entries dir);
          "2"; "1.0" ];
      (* --- Broadcast --- *)
      let bc = Baselines.Broadcast.create ~n metric in
      Baselines.Broadcast.publish bc ~server_addr:0 ~guid_key:1;
      emit
        [ "broadcast"; string_of_int n; string_of_int (n - 1);
          Printf.sprintf "%d*objs" 1; "1"; "0.0" ];
      List.rev !rows)
  in
  List.iter (List.iter (Stats.Table.add_row t)) row_groups;
  [ t ]

(* ------------------------------------------------------------------ *)
(* E2: stretch vs distance                                             *)
(* ------------------------------------------------------------------ *)

let stretch ?(seed = 42) mode =
  let n = pick mode ~quick:128 ~full:512 in
  let objects_n = pick mode ~quick:30 ~full:100 in
  let per_bucket = pick mode ~quick:20 ~full:60 in
  let net, metric, _ = build_tapestry ~seed ~kind:Uniform_square ~n () in
  let objects = Workload.place_objects net ~count:objects_n ~replicas:4 in
  (* mirror the same placement for the baselines *)
  let ch = Baselines.Chord.create ~seed:(seed + 2) ~m:24 ~succ_list:4 metric in
  ignore (Baselines.Chord.bootstrap ch ~addr:0);
  for addr = 1 to n - 1 do
    ignore (Baselines.Chord.join ch ~gateway:(Baselines.Chord.random_node ch) ~addr)
  done;
  Baselines.Chord.stabilize_all ch ~rounds:2;
  let chord_by_addr = Hashtbl.create n in
  List.iter
    (fun nd -> Hashtbl.replace chord_by_addr (Baselines.Chord.node_addr nd) nd)
    (Baselines.Chord.nodes ch);
  let pa = Baselines.Pastry.create ~seed:(seed + 6) Config.default metric in
  ignore (Baselines.Pastry.bootstrap pa ~addr:0);
  for addr = 1 to n - 1 do
    ignore (Baselines.Pastry.join pa ~gateway:(Baselines.Pastry.random_node pa) ~addr)
  done;
  let pastry_by_addr = Hashtbl.create n in
  List.iter
    (fun nd -> Hashtbl.replace pastry_by_addr (Baselines.Pastry.node_addr nd) nd)
    (Baselines.Pastry.nodes pa);
  let dir = Baselines.Central_directory.create ~directory_addr:(n / 2) metric in
  let chord_key_of (obj : Workload.placed_object) =
    Node_id.to_int ~base:Config.default.Config.base obj.Workload.guid
    land ((1 lsl 24) - 1)
  in
  List.iter
    (fun (obj : Workload.placed_object) ->
      List.iter
        (fun (s : Node.t) ->
          (match Hashtbl.find_opt chord_by_addr s.Node.addr with
          | Some nd -> Baselines.Chord.publish ch ~server:nd ~guid_key:(chord_key_of obj)
          | None -> ());
          (match Hashtbl.find_opt pastry_by_addr s.Node.addr with
          | Some nd -> Baselines.Pastry.publish pa ~server:nd obj.Workload.guid
          | None -> ());
          Baselines.Central_directory.publish dir ~server_addr:s.Node.addr
            ~guid_key:(chord_key_of obj))
        obj.Workload.servers)
    objects;
  let buckets = 5 in
  let strata = Workload.stratified_queries net ~objects ~per_bucket ~buckets in
  let t =
    Stats.Table.create
      ~title:"E2: stretch vs client-object distance (uniform-square metric)"
      ~columns:
        [ "dist bucket"; "queries"; "tapestry"; "tapestry-prr"; "chord"; "pastry";
          "central-dir"; "broadcast" ]
  in
  List.iter
    (fun (b, queries) ->
      let tap =
        List.filter_map (tapestry_stretch net) queries |> Stats.mean
      in
      let tap_prr =
        List.filter_map (tapestry_stretch ~variant:Route.Prr_like net) queries
        |> Stats.mean
      in
      let chord_stretch =
        List.filter_map
          (fun (q : Workload.query) ->
            let opt = Workload.optimal_distance net ~client:q.client q.obj in
            match Hashtbl.find_opt chord_by_addr q.client.Node.addr with
            | None -> None
            | Some from ->
                let before = Cost.snapshot (Baselines.Chord.cost ch) in
                let res = Baselines.Chord.locate ch ~from ~guid_key:(chord_key_of q.obj) in
                let d = Cost.diff (Baselines.Chord.cost ch) before in
                if Option.is_some res && opt > 1e-12 then Some (d.Cost.latency /. opt)
                else None)
          queries
        |> Stats.mean
      in
      let pastry_stretch =
        List.filter_map
          (fun (q : Workload.query) ->
            let opt = Workload.optimal_distance net ~client:q.client q.obj in
            match Hashtbl.find_opt pastry_by_addr q.client.Node.addr with
            | None -> None
            | Some from ->
                let before = Cost.snapshot (Baselines.Pastry.cost pa) in
                let res = Baselines.Pastry.locate pa ~from q.obj.Workload.guid in
                let d = Cost.diff (Baselines.Pastry.cost pa) before in
                if Option.is_some res && opt > 1e-12 then Some (d.Cost.latency /. opt)
                else None)
          queries
        |> Stats.mean
      in
      let dir_stretch =
        List.filter_map
          (fun (q : Workload.query) ->
            let opt = Workload.optimal_distance net ~client:q.client q.obj in
            let before = Cost.snapshot (Baselines.Central_directory.cost dir) in
            let res =
              Baselines.Central_directory.locate dir ~client_addr:q.client.Node.addr
                ~guid_key:(chord_key_of q.obj)
            in
            let d =
              Cost.diff (Baselines.Central_directory.cost dir) before
            in
            if Option.is_some res && opt > 1e-12 then Some (d.Cost.latency /. opt) else None)
          queries
        |> Stats.mean
      in
      Stats.Table.add_row t
        [ Printf.sprintf "%d/%d" (b + 1) buckets;
          string_of_int (List.length queries); f tap; f tap_prr; f chord_stretch;
          f pastry_stretch; f dir_stretch; "1.000" ])
    strata;
  [ t ]

(* ------------------------------------------------------------------ *)
(* E3: nearest-neighbor success vs k                                   *)
(* ------------------------------------------------------------------ *)

let nn_k ?(seed = 42) mode =
  let n = pick mode ~quick:128 ~full:400 in
  let trials = pick mode ~quick:20 ~full:60 in
  let ks = pick mode ~quick:[ 1; 2; 4; 8; 16 ] ~full:[ 1; 2; 4; 8; 16; 32; 48 ] in
  (* Isolate Lemma 1: run the level-list descent standalone for unregistered
     probe points, seeded with the oracle's k closest alpha-nodes, with
     Theorem-4 table updates disabled, and check each produced list against
     the true k closest level-i nodes. *)
  let rng = Rng.create seed in
  let metric = Topology.generate Uniform_square ~n:(n + trials) ~rng in
  let addrs = List.init n (fun i -> i) in
  let net, _ = Insert.build_incremental ~seed:(seed + 7) Config.default metric ~addrs in
  let cfg = net.Network.config in
  let alive = Network.alive_nodes net in
  let k_closest_level_i (probe : Node.t) ~level ~k =
    alive
    |> List.filter (fun (m : Node.t) ->
           Node_id.common_prefix_len m.Node.id probe.Node.id >= level)
    |> List.map (fun m -> (Network.dist net probe m, m))
    |> List.sort (fun (d1, _) (d2, _) -> Float.compare d1 d2)
    |> List.filteri (fun i _ -> i < k)
    |> List.map snd
  in
  let t =
    Stats.Table.create
      ~title:
        (Printf.sprintf
           "E3 / Lemma 1: level-list descent vs list width k (n=%d, theory k=O(log n), 4ceil(log2 n)=%d)"
           n
           (4 * int_of_float (ceil (log2 n))))
      ~columns:
        [ "k"; "NN found"; "all levels exact"; "level lists exact"; "contacts/query" ]
  in
  let core = Verify.core net in
  List.iter
    (fun k ->
      let nn_ok = ref 0 and all_exact = ref 0 in
      let level_total = ref 0 and level_exact = ref 0 in
      let contacts = ref 0 in
      for trial = 0 to trials - 1 do
        let probe =
          Node.create cfg ~id:(Network.fresh_id net) ~addr:(n + trial)
        in
        (* alpha = longest existing prefix: take it from the oracle *)
        let surrogate =
          Network.without_charging net (fun () ->
              Verify.surrogate_oracle net core probe.Node.id)
        in
        let max_level =
          Node_id.common_prefix_len probe.Node.id surrogate.Node.id
        in
        let current = ref (k_closest_level_i probe ~level:max_level ~k) in
        let exact_here = ref true in
        Network.without_charging net (fun () ->
            for level = max_level - 1 downto 0 do
              contacts := !contacts + List.length !current;
              let next =
                Nearest_neighbor.get_next_list ~update_tables:false net
                  ~new_node:probe ~level !current ~k
              in
              let oracle = k_closest_level_i probe ~level ~k in
              incr level_total;
              let same =
                List.length next = List.length oracle
                && List.for_all2
                     (fun (a : Node.t) (b : Node.t) -> Node_id.equal a.Node.id b.Node.id)
                     next oracle
              in
              if same then incr level_exact else exact_here := false;
              current := next
            done);
        if !exact_here then incr all_exact;
        (match (!current, Verify.true_nearest_neighbor net probe) with
        | best :: _, Some truth when Node_id.equal best.Node.id truth.Node.id ->
            incr nn_ok
        | _ -> ())
      done;
      Stats.Table.add_row t
        [ string_of_int k;
          Printf.sprintf "%d/%d" !nn_ok trials;
          Printf.sprintf "%d/%d" !all_exact trials;
          Printf.sprintf "%d/%d" !level_exact !level_total;
          f (float_of_int !contacts /. float_of_int trials) ])
    ks;
  (* E3b: the dynamic-k variant ([14], Sec. 6.2) on an expansion-hostile
     metric, where fixed k underperforms. *)
  let n2 = pick mode ~quick:100 ~full:200 in
  let trials2 = pick mode ~quick:15 ~full:40 in
  let t2 =
    Stats.Table.create
      ~title:
        (Printf.sprintf
           "E3b: fixed vs adaptive k, full joins on a clustered metric (n=%d; the multicast + backfill backstops mask small-k descent misses, at cost)"
           n2)
      ~columns:[ "variant"; "NN found"; "contacts/join" ]
  in
  List.iter
    (fun (name, adaptive, k_small) ->
      let rng2 = Rng.create (seed + 777) in
      let metric2 = Topology.generate Clustered ~n:(n2 + trials2) ~rng:rng2 in
      let addrs2 = List.init n2 (fun i -> i) in
      let cfg2 =
        if k_small then { Config.default with Config.k_list = 4; k_fixed = true }
        else Config.default
      in
      let net2, _ =
        Insert.build_incremental ~seed:(seed + 11) cfg2 metric2 ~addrs:addrs2
      in
      let ok = ref 0 and contacts = ref 0 in
      for trial = 0 to trials2 - 1 do
        let gw = Network.random_alive net2 in
        let report = Insert.insert ~adaptive net2 ~gateway:gw ~addr:(n2 + trial) in
        let probe = report.Insert.node in
        (match
           ( Nearest_neighbor.nearest_neighbor net2 ~from:probe,
             Verify.true_nearest_neighbor net2 probe )
         with
        | Some a, Some b when Node_id.equal a.Node.id b.Node.id -> incr ok
        | _ -> ());
        contacts := !contacts + report.Insert.nn_trace.Nearest_neighbor.nodes_contacted;
        ignore (Tapestry.Delete.voluntary net2 probe)
      done;
      Stats.Table.add_row t2
        [ name;
          Printf.sprintf "%d/%d" !ok trials2;
          f (float_of_int !contacts /. float_of_int trials2) ])
    [ ("fixed k=4", false, true); ("adaptive from k=4", true, true);
      ("fixed k=O(log n)", false, false) ];
  [ t; t2 ]

(* ------------------------------------------------------------------ *)
(* E4: insertion scaling                                               *)
(* ------------------------------------------------------------------ *)

let insert_scaling ?(seed = 42) ?(domains = 1) mode =
  let sizes = pick mode ~quick:[ 32; 64; 128 ] ~full:[ 32; 64; 128; 256; 512; 1024 ] in
  let t =
    Stats.Table.create
      ~title:"E4: insertion cost scaling (messages ~ O(log^2 n), latency ~ O(d log n))"
      ~columns:
        [ "n"; "insert msgs"; "msgs/log2(n)^2"; "insert latency"; "latency/diam";
          "mcast reached" ]
  in
  (* One task per size, joined in size order; the log-log fit is computed
     after the join so the table is independent of [domains]. *)
  let results =
    Parallel.map_list ~domains sizes ~f:(fun _ n ->
        let net, metric, reports = build_tapestry ~seed ~kind:Uniform_square ~n () in
        ignore net;
        let msgs = late_mean reports (fun r -> float_of_int r.Insert.cost.Cost.messages) in
        let lat = late_mean reports (fun r -> r.Insert.cost.Cost.latency) in
        let reached = late_mean reports (fun r -> float_of_int r.Insert.multicast_reached) in
        let rng = Rng.create (seed + 5) in
        let diam = Metric.diameter metric ~sample:2000 ~rng in
        ( (log (float_of_int n), log msgs),
          [ string_of_int n; f msgs; f (msgs /. (log2 n ** 2.)); f lat;
            f (lat /. diam); f reached ] ))
  in
  List.iter (fun (_, row) -> Stats.Table.add_row t row) results;
  let slope, _ = Stats.linear_fit (List.map fst results) in
  Stats.Table.add_row t
    [ "log-log slope"; f slope; "-"; "-"; "-"; "-" ];
  [ t ]

(* ------------------------------------------------------------------ *)
(* E5: acknowledged multicast                                          *)
(* ------------------------------------------------------------------ *)

let multicast ?(seed = 42) mode =
  let n = pick mode ~quick:128 ~full:512 in
  let probes = pick mode ~quick:40 ~full:200 in
  let net, _, _ = build_tapestry ~seed ~kind:Uniform_square ~n () in
  let rng = Rng.create (seed + 9) in
  let cfg = net.Network.config in
  let t =
    Stats.Table.create
      ~title:(Printf.sprintf "E5: acknowledged multicast coverage (n=%d)" n)
      ~columns:
        [ "prefix len"; "probes"; "full coverage"; "edges = reached-1"; "mean reached" ]
  in
  List.iter
    (fun plen ->
      let full = ref 0 and tree = ref 0 and reached_tot = ref 0 and runs = ref 0 in
      for _ = 1 to probes do
        let anchor = Network.random_alive net in
        let prefix = Node_id.digits anchor.Node.id in
        ignore (Rng.int rng 2);
        let oracle =
          Network.alive_nodes net
          |> List.filter (fun (m : Node.t) ->
                 Node_id.has_prefix m.Node.id ~prefix ~len:plen)
        in
        if List.length oracle >= 1 then begin
          incr runs;
          let res =
            Network.without_charging net (fun () ->
                Multicast.run net ~start:anchor ~prefix ~len:plen ~apply:ignore)
          in
          let reached = List.length res.Multicast.reached in
          reached_tot := !reached_tot + reached;
          if reached = List.length oracle then incr full;
          if res.Multicast.tree_edges = reached - 1 then incr tree
        end
      done;
      if !runs > 0 then
        Stats.Table.add_row t
          [ string_of_int plen; string_of_int !runs;
            Printf.sprintf "%d/%d" !full !runs;
            Printf.sprintf "%d/%d" !tree !runs;
            f (float_of_int !reached_tot /. float_of_int !runs) ])
    [ 1; 2; 3 ];
  ignore cfg;
  [ t ]

(* ------------------------------------------------------------------ *)
(* E6: surrogate routing                                               *)
(* ------------------------------------------------------------------ *)

let surrogate ?(seed = 42) mode =
  let n = pick mode ~quick:128 ~full:512 in
  let guids = pick mode ~quick:40 ~full:200 in
  let sources = pick mode ~quick:10 ~full:25 in
  let net, _, _ = build_tapestry ~seed ~kind:Uniform_square ~n () in
  let cfg = net.Network.config in
  let t =
    Stats.Table.create
      ~title:(Printf.sprintf "E6: surrogate routing (n=%d)" n)
      ~columns:
        [ "variant"; "unique root"; "matches oracle"; "mean surrogate hops";
          "p99 surrogate hops" ]
  in
  let core = Verify.core net in
  List.iter
    (fun (name, variant) ->
      let unique = ref 0 and oracle_ok = ref 0 and hops = ref [] in
      for _ = 1 to guids do
        let guid =
          Node_id.random ~base:cfg.Config.base ~len:cfg.Config.id_digits
            net.Network.rng
        in
        let roots =
          Network.without_charging net (fun () ->
              List.init sources (fun _ ->
                  let from = Network.random_alive net in
                  let info = Route.route_to_root ~variant net ~from guid in
                  hops := float_of_int info.Route.surrogate_hops :: !hops;
                  info.Route.root.Node.id))
        in
        let first = List.hd roots in
        if List.for_all (Node_id.equal first) roots then begin
          incr unique;
          if
            Route.equal_variant variant Route.Native
            && Node_id.equal first (Verify.surrogate_oracle net core guid).Node.id
          then incr oracle_ok
        end
      done;
      let s = Stats.summarize !hops in
      Stats.Table.add_row t
        [ name;
          Printf.sprintf "%d/%d" !unique guids;
          (if Route.equal_variant variant Route.Native then
             Printf.sprintf "%d/%d" !oracle_ok guids
           else "n/a");
          f s.Stats.mean; f s.Stats.p99 ])
    [ ("native", Route.Native); ("prr-like", Route.Prr_like) ];
  [ t ]

(* ------------------------------------------------------------------ *)
(* E7: availability under churn                                        *)
(* ------------------------------------------------------------------ *)

let availability ?(seed = 42) mode =
  let n = pick mode ~quick:96 ~full:256 in
  let steps = pick mode ~quick:40 ~full:150 in
  let probes_per_step = pick mode ~quick:10 ~full:25 in
  let net, metric, _ = build_tapestry ~seed ~kind:Uniform_square ~n:(n * 2) () in
  ignore metric;
  (* start with half the address space; churn uses the rest *)
  let objects = Workload.place_objects net ~count:(n / 2) ~replicas:2 in
  let guids = List.map (fun (o : Workload.placed_object) -> o.Workload.guid) objects in
  let rng = Rng.create (seed + 13) in
  let trace = Workload.churn_trace ~rng ~steps ~p_join:0.4 ~p_leave:0.3 in
  let t =
    Stats.Table.create
      ~title:
        (Printf.sprintf
           "E7: availability under churn (start n=%d, %d events, lazy repair + republish)"
           (2 * n) steps)
      ~columns:[ "phase"; "events"; "locate success"; "alive nodes" ]
  in
  let free_addrs = ref [] in
  let next_addr = ref (Metric.size net.Network.metric) in
  let take_addr () =
    match !free_addrs with
    | a :: rest ->
        free_addrs := rest;
        a
    | [] ->
        decr next_addr;
        !next_addr
  in
  (* replicas live on servers; churn victims are non-servers to keep the
     denominator meaningful (server loss is legitimate unavailability,
     measured separately in E12) *)
  let server_ids =
    List.concat_map
      (fun (o : Workload.placed_object) ->
        List.map (fun (s : Node.t) -> s.Node.id) o.Workload.servers)
      objects
    |> List.fold_left (fun acc id -> Node_id.Set.add id acc) Node_id.Set.empty
  in
  let victim () =
    let rec go tries =
      if tries > 50 then None
      else begin
        let v = Network.random_alive net in
        if Node.is_core v && not (Node_id.Set.mem v.Node.id server_ids) then Some v
        else go (tries + 1)
      end
    in
    go 0
  in
  let measure_phase name events =
    let ok = ref 0 and total = ref 0 in
    List.iter
      (fun ev ->
        (match ev with
        | Workload.Join ->
            let gw = Network.random_alive net in
            ignore (Insert.insert net ~gateway:gw ~addr:(take_addr ()))
        | Workload.Leave_voluntary -> (
            match victim () with
            | Some v ->
                free_addrs := v.Node.addr :: !free_addrs;
                ignore (Delete.voluntary net v)
            | None -> ())
        | Workload.Fail -> (
            match victim () with
            | Some v ->
                free_addrs := v.Node.addr :: !free_addrs;
                Delete.fail net v
            | None -> ()));
        for _ = 1 to probes_per_step do
          incr total;
          let client = Network.random_alive net in
          let guid = Rng.pick_list net.Network.rng guids in
          let res =
            Locate.locate ~variant:Route.Native net ~client guid
          in
          if Option.is_some res.Locate.server then incr ok
        done;
        Maintenance.tick net ~dt:10.)
      events;
    Stats.Table.add_row t
      [ name; string_of_int (List.length events);
        Printf.sprintf "%.4f" (float_of_int !ok /. float_of_int (max 1 !total));
        string_of_int (List.length (Network.alive_nodes net)) ]
  in
  let half = steps / 2 in
  let rec split i acc = function
    | [] -> (List.rev acc, [])
    | x :: rest -> if i = 0 then (List.rev acc, x :: rest) else split (i - 1) (x :: acc) rest
  in
  let first_half, second_half = split half [] trace in
  measure_phase "churn 1st half" first_half;
  measure_phase "churn 2nd half" second_half;
  [ t ]

(* ------------------------------------------------------------------ *)
(* E8: simultaneous insertion on a virtual-time event heap            *)
(* ------------------------------------------------------------------ *)

let concurrent_insert ?(seed = 42) mode =
  let n = pick mode ~quick:64 ~full:192 in
  let batches = pick mode ~quick:4 ~full:10 in
  let batch_size = pick mode ~quick:4 ~full:8 in
  let total_addrs = n + (batches * batch_size) in
  let rng = Rng.create seed in
  let metric = Topology.generate Uniform_square ~n:total_addrs ~rng in
  let addrs = List.init n (fun i -> i) in
  let net, _ = Insert.build_incremental ~seed:(seed + 1) Config.default metric ~addrs in
  let t =
    Stats.Table.create
      ~title:
        (Printf.sprintf
           "E8: simultaneous insertions, %d batches of %d interleaved at stage boundaries"
           batches batch_size)
      ~columns:[ "batch"; "joined"; "P1 violations after"; "roots unique" ]
  in
  let next_addr = ref n in
  for batch = 1 to batches do
    let events = Simnet.Heap.create ~cmp:Float.compare in
    let batch_rng = Rng.create (seed + (batch * 31)) in
    for _ = 1 to batch_size do
      let addr = !next_addr in
      incr next_addr;
      let jitter0 = Rng.float batch_rng 1.0 in
      let jitter1 = Rng.float batch_rng 1.0 in
      let jitter2 = Rng.float batch_rng 1.0 in
      Insert.push_staged events net ~addr ~delays:(jitter0, jitter1, jitter2)
    done;
    Simnet.Heap.drain events;
    let v1 = Verify.check_property1 net in
    let guid =
      Node_id.random ~base:Config.default.Config.base
        ~len:Config.default.Config.id_digits net.Network.rng
    in
    let unique = Verify.roots_agree net guid ~samples:15 in
    Stats.Table.add_row t
      [ string_of_int batch; string_of_int batch_size;
        string_of_int (List.length v1); string_of_bool unique ]
  done;
  [ t ]

(* ------------------------------------------------------------------ *)
(* E9: PRR v.0 on general metrics                                      *)
(* ------------------------------------------------------------------ *)

let prr_v0 ?(seed = 42) ?(domains = 1) mode =
  let n = pick mode ~quick:100 ~full:300 in
  let queries = pick mode ~quick:100 ~full:400 in
  let t =
    Stats.Table.create
      ~title:
        (Printf.sprintf
           "E9: general metric spaces — PRR v.0 / Thorup-Zwick / Tapestry (n=%d, log2(n)^2=%.0f)"
           n (log2 n ** 2.))
      ~columns:
        [ "metric"; "scheme"; "mean stretch"; "p90 stretch"; "space/node"; "found" ]
  in
  (* Each metric kind builds its own topologies and rngs: one task per kind. *)
  let row_groups =
    Parallel.map_list ~domains
      [ Topology.Random_metric; Topology.Star; Topology.Clustered ]
      ~f:(fun _ kind ->
      let rows = ref [] in
      let emit r = rows := r :: !rows in
      let rng = Rng.create (seed + 17) in
      let metric = Topology.generate kind ~n ~rng in
      let kind_name = Topology.kind_name kind in
      (* PRR v.0 *)
      let p = Baselines.Prr_v0.build ~seed:(seed + 19) metric in
      let stretches = ref [] and found = ref 0 and attempted = ref 0 in
      let qrng = Rng.create (seed + 23) in
      for q = 1 to queries do
        let server = Rng.int qrng n in
        Baselines.Prr_v0.publish p ~server_addr:server ~guid_key:q;
        let client = Rng.int qrng n in
        if client <> server then begin
          incr attempted;
          let before = Cost.snapshot (Baselines.Prr_v0.cost p) in
          match Baselines.Prr_v0.locate p ~client_addr:client ~guid_key:q with
          | Some s when s = server ->
              incr found;
              let d = Cost.diff (Baselines.Prr_v0.cost p) before in
              let opt = Metric.dist metric client server in
              if opt > 1e-12 then stretches := (d.Cost.latency /. opt) :: !stretches
          | _ -> ()
        end
      done;
      let s = Stats.summarize !stretches in
      emit
        [ kind_name; "prr-v0"; f s.Stats.mean; f s.Stats.p90;
          f (Baselines.Prr_v0.space_per_node p);
          Printf.sprintf "%d/%d" !found !attempted ];
      (* Thorup-Zwick adaptation: the space improvement the paper cites *)
      let tz = Baselines.Thorup_zwick.build ~seed:(seed + 21) metric in
      let stretches = ref [] and found = ref 0 and attempted = ref 0 in
      let qrng = Rng.create (seed + 24) in
      for q = 1 to queries do
        let server = Rng.int qrng n in
        Baselines.Thorup_zwick.publish tz ~server_addr:server ~guid_key:q;
        let client = Rng.int qrng n in
        if client <> server then begin
          incr attempted;
          let before = Cost.snapshot (Baselines.Thorup_zwick.cost tz) in
          match Baselines.Thorup_zwick.locate tz ~client_addr:client ~guid_key:q with
          | Some s when s = server ->
              incr found;
              let d = Cost.diff (Baselines.Thorup_zwick.cost tz) before in
              let opt = Metric.dist metric client server in
              if opt > 1e-12 then stretches := (d.Cost.latency /. opt) :: !stretches
          | _ -> ()
        end
      done;
      let s = Stats.summarize !stretches in
      emit
        [ kind_name; "thorup-zwick"; f s.Stats.mean; f s.Stats.p90;
          f (Baselines.Thorup_zwick.space_per_node tz);
          Printf.sprintf "%d/%d" !found !attempted ];
      (* Tapestry on the same space: guarantees lapse, system still works *)
      let addrs = List.init n (fun i -> i) in
      let net, _ =
        Insert.build_incremental ~seed:(seed + 29) Config.default metric ~addrs
      in
      let objects = Workload.place_objects net ~count:(queries / 4) ~replicas:1 in
      let qs = Workload.uniform_queries net ~objects ~count:queries in
      let tap = List.filter_map (tapestry_stretch net) qs in
      let space =
        Network.alive_nodes net
        |> List.map (fun (nd : Node.t) ->
               float_of_int (Routing_table.entry_count nd.Node.table))
        |> Stats.mean
      in
      let s = Stats.summarize tap in
      emit
        [ kind_name; "tapestry"; f s.Stats.mean; f s.Stats.p90; f space;
          Printf.sprintf "%d/%d" (List.length tap) queries ];
      List.rev !rows)
  in
  List.iter (List.iter (Stats.Table.add_row t)) row_groups;
  [ t ]

(* ------------------------------------------------------------------ *)
(* E10: stub locality                                                  *)
(* ------------------------------------------------------------------ *)

let stub_locality ?(seed = 42) mode =
  let params =
    match mode with
    | Quick -> { Simnet.Transit_stub.default_params with stub_size = 6 }
    | Full ->
        { Simnet.Transit_stub.default_params with stubs_per_transit = 4; stub_size = 10 }
  in
  let rng = Rng.create seed in
  let ts = Simnet.Transit_stub.generate params ~rng in
  let metric = Simnet.Transit_stub.metric ts in
  let hosts = Simnet.Transit_stub.hosts ts in
  let net, _ =
    Insert.build_incremental ~seed:(seed + 1) Config.default metric ~addrs:hosts
  in
  let same_stub = Simnet.Transit_stub.same_stub ts in
  (* Each object gets one replica; queries come from the same stub as the
     replica (the case Section 6.3 optimizes). *)
  let count = pick mode ~quick:30 ~full:80 in
  let cfg = net.Network.config in
  let make_objs with_local =
    List.init count (fun i ->
        ignore i;
        let server = Network.random_alive net in
        let guid =
          Node_id.random ~base:cfg.Config.base ~len:cfg.Config.id_digits
            net.Network.rng
        in
        if with_local then Locality.publish net ~same_stub ~server guid
        else ignore (Publish.publish net ~server guid);
        (server, guid))
  in
  let same_stub_clients (server : Node.t) =
    Network.alive_nodes net
    |> List.filter (fun (c : Node.t) ->
           same_stub c.Node.addr server.Node.addr
           && not (Node_id.equal c.Node.id server.Node.id))
  in
  let run with_local locate_fn =
    let objs = make_objs with_local in
    let lats = ref [] and crossings = ref 0 and total = ref 0 in
    List.iter
      (fun ((server : Node.t), guid) ->
        List.iter
          (fun client ->
            incr total;
            let res, cost = Network.measure net (fun () -> locate_fn ~client guid) in
            if Option.is_some (res : Locate.result).Locate.server then begin
              lats := cost.Cost.latency :: !lats;
              (* did the walk leave the stub? *)
              let left =
                List.exists
                  (fun (hop : Node.t) -> not (same_stub hop.Node.addr server.Node.addr))
                  res.Locate.walk
              in
              if left then incr crossings
            end)
          (same_stub_clients server))
      objs;
    (Stats.summarize !lats, !crossings, !total)
  in
  let base_s, base_cross, base_total = run false (fun ~client guid -> Locate.locate net ~client guid) in
  let opt_s, opt_cross, opt_total =
    run true (fun ~client guid -> Locality.locate net ~same_stub ~client guid)
  in
  let t =
    Stats.Table.create
      ~title:
        (Printf.sprintf
           "E10: transit-stub locality (hosts=%d, stubs=%d, intra/inter latency %.0f/%.0f)"
           (List.length hosts)
           (Simnet.Transit_stub.stub_count ts)
           params.Simnet.Transit_stub.intra_stub_latency
           params.Simnet.Transit_stub.transit_latency)
      ~columns:
        [ "mode"; "mean latency"; "p90 latency"; "stub escapes"; "queries" ]
  in
  Stats.Table.add_row t
    [ "wide-area only"; f base_s.Stats.mean; f base_s.Stats.p90;
      Printf.sprintf "%d/%d" base_cross base_total; string_of_int base_total ];
  Stats.Table.add_row t
    [ "with local branch"; f opt_s.Stats.mean; f opt_s.Stats.p90;
      Printf.sprintf "%d/%d" opt_cross opt_total; string_of_int opt_total ];
  [ t ]

(* ------------------------------------------------------------------ *)
(* E11: table quality vs static oracle                                 *)
(* ------------------------------------------------------------------ *)

let table_quality ?(seed = 42) ?(domains = 1) mode =
  let sizes = pick mode ~quick:[ 64; 128 ] ~full:[ 64; 128; 256; 512 ] in
  let t =
    Stats.Table.create
      ~title:"E11: incremental construction vs static oracle (Property 2 quality)"
      ~columns:
        [ "n"; "P1 violations"; "optimal primaries"; "oracle-matched dist"; "NN correct" ]
  in
  (* One task per size: both the incremental network and its static oracle
     are local to the task. *)
  let rows =
    Parallel.map_list ~domains sizes ~f:(fun _ n ->
      let rng = Rng.create (seed + n) in
      let metric = Topology.generate Uniform_square ~n ~rng in
      let addrs = List.init n (fun i -> i) in
      let net, _ = Insert.build_incremental ~seed:(seed + 3) Config.default metric ~addrs in
      let v1 = List.length (Verify.check_property1 net) in
      let total = ref 0 and optimal = ref 0 in
      Verify.check_property2 net ~total ~optimal;
      (* mirror-id oracle network *)
      let oracle = Network.create ~seed:(seed + 3) Config.default metric in
      List.iter
        (fun (nd : Node.t) ->
          let copy = Node.create Config.default ~id:nd.Node.id ~addr:nd.Node.addr in
          copy.Node.status <- Node.Active;
          Network.register oracle copy)
        (Network.alive_nodes net);
      Network.without_charging oracle (fun () -> Static_build.populate_links oracle);
      let quality = Static_build.table_quality net ~oracle in
      let nn_ok = ref 0 and nn_tot = ref 0 in
      List.iter
        (fun (nd : Node.t) ->
          incr nn_tot;
          match
            ( Nearest_neighbor.nearest_neighbor net ~from:nd,
              Verify.true_nearest_neighbor net nd )
          with
          | Some a, Some b when Node_id.equal a.Node.id b.Node.id -> incr nn_ok
          | _ -> ())
        (Network.alive_nodes net);
      [ string_of_int n; string_of_int v1;
        Printf.sprintf "%d/%d" !optimal !total;
        Printf.sprintf "%.3f" quality;
        Printf.sprintf "%d/%d" !nn_ok !nn_tot ])
  in
  List.iter (Stats.Table.add_row t) rows;
  [ t ]

(* ------------------------------------------------------------------ *)
(* E12: deletion                                                       *)
(* ------------------------------------------------------------------ *)

let delete ?(seed = 42) mode =
  let n = pick mode ~quick:96 ~full:256 in
  let net, _, _ = build_tapestry ~seed ~kind:Uniform_square ~n () in
  let objects = Workload.place_objects net ~count:(n / 4) ~replicas:2 in
  let guids = List.map (fun (o : Workload.placed_object) -> o.Workload.guid) objects in
  let server_ids =
    List.concat_map
      (fun (o : Workload.placed_object) ->
        List.map (fun (s : Node.t) -> s.Node.id) o.Workload.servers)
      objects
    |> List.fold_left (fun acc id -> Node_id.Set.add id acc) Node_id.Set.empty
  in
  let t =
    Stats.Table.create
      ~title:(Printf.sprintf "E12: deletion (n=%d, %d objects x2 replicas)" n (n / 4))
      ~columns:[ "phase"; "nodes"; "P1 violations"; "P4 gaps"; "availability" ]
  in
  let snapshot phase =
    let v1 = List.length (Verify.check_property1 net) in
    let p4 = List.length (Verify.check_property4 net) in
    let avail = Verify.availability net ~guids ~samples:(pick mode ~quick:150 ~full:400) in
    Stats.Table.add_row t
      [ phase; string_of_int (List.length (Network.alive_nodes net));
        string_of_int v1; string_of_int p4; Printf.sprintf "%.4f" avail ]
  in
  snapshot "initial";
  (* voluntary sweep: 20% of non-server nodes *)
  let victims =
    Network.alive_nodes net
    |> List.filter (fun (v : Node.t) -> not (Node_id.Set.mem v.Node.id server_ids))
  in
  let n_vol = List.length victims / 5 in
  List.iteri
    (fun i v -> if i < n_vol then ignore (Delete.voluntary net v))
    victims;
  snapshot (Printf.sprintf "after %d voluntary" n_vol);
  (* involuntary: fail 10%, route with lazy repair, then soft-state recovery *)
  let victims2 =
    Network.alive_nodes net
    |> List.filter (fun (v : Node.t) -> not (Node_id.Set.mem v.Node.id server_ids))
  in
  let n_fail = List.length victims2 / 10 in
  List.iteri (fun i v -> if i < n_fail then Delete.fail net v) victims2;
  (* exercise lazy repair: a wave of queries with the repairing handler *)
  let repair_queries = pick mode ~quick:200 ~full:600 in
  for _ = 1 to repair_queries do
    let client = Network.random_alive net in
    let guid = Rng.pick_list net.Network.rng guids in
    let _, _, _ =
      Route.fold_path ~on_dead:Delete.on_dead_repair net ~from:client guid
        ~init:() ~f:(fun () _ -> `Continue ())
    in
    ()
  done;
  snapshot (Printf.sprintf "after %d failures + lazy repair" n_fail);
  Maintenance.tick net ~dt:Config.default.Config.republish_interval;
  ignore (Maintenance.republish_all net);
  snapshot "after republish";
  [ t ]


(* ------------------------------------------------------------------ *)
(* E13: Section 3 NN algorithm vs Karger-Ruhl sampling                 *)
(* ------------------------------------------------------------------ *)

let nn_vs_kr ?(seed = 42) mode =
  let n = pick mode ~quick:150 ~full:400 in
  let queries = pick mode ~quick:60 ~full:200 in
  let rng = Rng.create seed in
  let metric = Topology.generate Uniform_torus ~n:(n + queries) ~rng in
  let t =
    Stats.Table.create
      ~title:
        (Printf.sprintf
           "E13: nearest-neighbor — level-list descent (Sec. 3) vs Karger-Ruhl sampling (n=%d)"
           n)
      ~columns:[ "scheme"; "exact NN"; "msgs/query"; "net dist/query"; "space/node" ]
  in
  (* --- this paper: the descent, run through real insertions --- *)
  let addrs = List.init n (fun i -> i) in
  let net, _ = Insert.build_incremental ~seed:(seed + 1) Config.default metric ~addrs in
  let ok = ref 0 and msgs = ref 0 and distd = ref 0. in
  for q = 0 to queries - 1 do
    let gw = Network.random_alive net in
    let (report : Tapestry.Insert.report), cost =
      Network.measure net (fun () -> Insert.insert net ~gateway:gw ~addr:(n + q))
    in
    ignore cost;
    let probe = report.Insert.node in
    (match
       ( Nearest_neighbor.nearest_neighbor net ~from:probe,
         Verify.true_nearest_neighbor net probe )
     with
    | Some a, Some b when Node_id.equal a.Node.id b.Node.id -> incr ok
    | _ -> ());
    msgs := !msgs + report.Insert.cost.Cost.messages;
    distd := !distd +. report.Insert.cost.Cost.latency;
    ignore (Network.without_charging net (fun () -> Tapestry.Delete.voluntary net probe))
  done;
  let space =
    Network.alive_nodes net
    |> List.map (fun (nd : Node.t) ->
           float_of_int (Routing_table.entry_count nd.Node.table))
    |> Stats.mean
  in
  Stats.Table.add_row t
    [ "full join (all levels)";
      Printf.sprintf "%d/%d" !ok queries;
      f (float_of_int !msgs /. float_of_int queries);
      f (!distd /. float_of_int queries);
      f space ];
  (* --- the descent alone, as a single NN query --- *)
  let cfg = net.Network.config in
  let k = Config.scaled_k cfg ~n in
  let alive = Network.alive_nodes net in
  let ok = ref 0 and msgs = ref 0 and distd = ref 0. in
  let core = Verify.core net in
  for q = 0 to queries - 1 do
    let probe = Node.create cfg ~id:(Network.fresh_id net) ~addr:(n + q) in
    let surrogate =
      Network.without_charging net (fun () ->
          Verify.surrogate_oracle net core probe.Node.id)
    in
    let max_level = Node_id.common_prefix_len probe.Node.id surrogate.Node.id in
    let seed_list =
      alive
      |> List.filter (fun (m : Node.t) ->
             Node_id.common_prefix_len m.Node.id probe.Node.id >= max_level)
      |> List.map (fun m -> (Network.dist net probe m, m))
      |> List.sort (fun (d1, _) (d2, _) -> Float.compare d1 d2)
      |> List.filteri (fun i _ -> i < k)
      |> List.map snd
    in
    let (), cost =
      Network.measure net (fun () ->
          let current = ref seed_list in
          for level = max_level - 1 downto 0 do
            current :=
              Nearest_neighbor.get_next_list ~update_tables:false net
                ~new_node:probe ~level !current ~k
          done;
          match (!current, Verify.true_nearest_neighbor net probe) with
          | best :: _, Some truth when Node_id.equal best.Node.id truth.Node.id ->
              incr ok
          | _ -> ())
    in
    msgs := !msgs + cost.Cost.messages;
    distd := !distd +. cost.Cost.latency
  done;
  Stats.Table.add_row t
    [ "descent only (one query)";
      Printf.sprintf "%d/%d" !ok queries;
      f (float_of_int !msgs /. float_of_int queries);
      f (!distd /. float_of_int queries);
      "0 (reuses mesh)" ];
  (* --- Karger-Ruhl, over the same points, at two sample sizes --- *)
  List.iter
    (fun s ->
      let kr = Baselines.Karger_ruhl.build ~seed:(seed + 2) ~sample_size:s metric in
      let ok = ref 0 and msgs = ref 0 and distd = ref 0. in
      let qrng = Rng.create (seed + 3) in
      for _ = 1 to queries do
        let target = Rng.int qrng n in
        let start = Rng.int qrng n in
        let a = Baselines.Karger_ruhl.query kr ~start ~target in
        (match Simnet.Metric.nearest_other metric target with
        | Some truth
          when Simnet.Metric.dist metric target a.Baselines.Karger_ruhl.nearest
               <= Simnet.Metric.dist metric target truth +. 1e-12 ->
            incr ok
        | _ -> ());
        msgs := !msgs + a.Baselines.Karger_ruhl.messages;
        distd := !distd +. a.Baselines.Karger_ruhl.distance
      done;
      Stats.Table.add_row t
        [ Printf.sprintf "karger-ruhl (s=%d)" s;
          Printf.sprintf "%d/%d" !ok queries;
          f (float_of_int !msgs /. float_of_int queries);
          f (!distd /. float_of_int queries);
          f (Baselines.Karger_ruhl.space_per_node kr) ])
    (pick mode ~quick:[ 24; 96 ] ~full:[ 24; 48; 96 ]);
  [ t ]

(* ------------------------------------------------------------------ *)
(* E14: Section 6.4 continual optimization under drifting distances    *)
(* ------------------------------------------------------------------ *)

let continual_optimization ?(seed = 42) mode =
  let n = pick mode ~quick:120 ~full:256 in
  let probes = pick mode ~quick:200 ~full:500 in
  let rng = Rng.create seed in
  let drift = Simnet.Drift.create ~n ~rng in
  let metric = Simnet.Drift.metric drift in
  let addrs = List.init n (fun i -> i) in
  let net, _ = Insert.build_incremental ~seed:(seed + 1) Config.default metric ~addrs in
  let objects = Workload.place_objects net ~count:(n / 4) ~replicas:2 in
  let stretch () =
    Network.without_charging net (fun () ->
        let qs = Workload.uniform_queries net ~objects ~count:probes in
        List.filter_map (tapestry_stretch net) qs |> Stats.mean)
  in
  let p2 () =
    let total = ref 0 and optimal = ref 0 in
    Verify.check_property2 net ~total ~optimal;
    float_of_int !optimal /. float_of_int (max 1 !total)
  in
  let t =
    Stats.Table.create
      ~title:
        (Printf.sprintf
           "E14: continual optimization after distance drift (n=%d, Sec. 6.4 heuristics)"
           n)
      ~columns:[ "state"; "mean stretch"; "P2 quality"; "maint. msgs"; "ptrs moved" ]
  in
  let row name stats =
    let msgs, moved =
      match stats with
      | Some (s : Tapestry.Optimizer.stats) ->
          (string_of_int s.Tapestry.Optimizer.cost.Cost.messages,
           string_of_int s.Tapestry.Optimizer.pointers_moved)
      | None -> ("-", "-")
    in
    Stats.Table.add_row t [ name; f (stretch ()); Printf.sprintf "%.3f" (p2 ()); msgs; moved ]
  in
  row "built (fresh)" None;
  Simnet.Drift.advance drift ~rng ~magnitude:0.2;
  row "after drift" None;
  row "rotate_primaries" (Some (Optimizer.rotate_primaries net));
  Simnet.Drift.advance drift ~rng ~magnitude:0.2;
  row "after drift #2" None;
  row "share_tables" (Some (Optimizer.share_tables net));
  Simnet.Drift.advance drift ~rng ~magnitude:0.2;
  row "after drift #3" None;
  row "full_rebuild" (Some (Optimizer.full_rebuild net));
  [ t ]

(* ------------------------------------------------------------------ *)
(* E15: redundancy ablation — R, root-set size, fault tolerance        *)
(* ------------------------------------------------------------------ *)

let redundancy ?(seed = 42) ?(domains = 1) mode =
  let n = pick mode ~quick:120 ~full:256 in
  let kill_frac = 0.15 in
  let probes = pick mode ~quick:200 ~full:500 in
  let t =
    Stats.Table.create
      ~title:
        (Printf.sprintf
           "E15: redundancy ablation (n=%d, %.0f%%%% silent failures, no repair or republish)"
           n (100. *. kill_frac))
      ~columns:
        [ "R"; "roots"; "space/node"; "avail before"; "avail after kill";
          "after + repair" ]
  in
  (* One task per (R, roots, placement) configuration. *)
  let rows =
    Parallel.map_list ~domains
      [ (1, 1, false); (2, 1, false); (3, 1, false); (4, 1, false);
        (3, 1, true); (3, 2, false); (3, 3, false) ]
      ~f:(fun _ (r, roots, on_secondaries) ->
      let cfg = { Config.default with Config.redundancy = r; root_set_size = roots } in
      let rng = Rng.create (seed + r + (7 * roots)) in
      let metric = Topology.generate Uniform_square ~n ~rng in
      let addrs = List.init n (fun i -> i) in
      let net, _ = Insert.build_incremental ~seed:(seed + 2) cfg metric ~addrs in
      let objects =
        Workload.place_objects ~on_secondaries net ~count:(n / 4) ~replicas:1
      in
      let guids = List.map (fun (o : Workload.placed_object) -> o.Workload.guid) objects in
      let server_ids =
        List.concat_map
          (fun (o : Workload.placed_object) ->
            List.map (fun (s : Node.t) -> s.Node.id) o.Workload.servers)
          objects
        |> List.fold_left (fun acc id -> Node_id.Set.add id acc) Node_id.Set.empty
      in
      let space =
        Network.alive_nodes net
        |> List.map (fun (nd : Node.t) ->
               float_of_int (Routing_table.entry_count nd.Node.table))
        |> Stats.mean
      in
      let before = Verify.availability net ~guids ~samples:probes in
      (* silent mass failure of non-servers *)
      let victims =
        Network.alive_nodes net
        |> List.filter (fun (v : Node.t) -> not (Node_id.Set.mem v.Node.id server_ids))
      in
      let n_kill = int_of_float (kill_frac *. float_of_int (List.length victims)) in
      List.iteri (fun i v -> if i < n_kill then Tapestry.Delete.fail net v) victims;
      let after = Verify.availability net ~guids ~samples:probes in
      (* lazy repair via routed probes, then re-measure *)
      Network.without_charging net (fun () ->
          for _ = 1 to probes do
            let client = Network.random_alive net in
            let guid = Rng.pick_list net.Network.rng guids in
            let _, _, _ =
              Route.fold_path ~on_dead:Tapestry.Delete.on_dead_repair net
                ~from:client guid ~init:() ~f:(fun () _ -> `Continue ())
            in
            ()
          done);
      let repaired = Verify.availability net ~guids ~samples:probes in
      [ (string_of_int r ^ if on_secondaries then "+sec" else "");
        string_of_int roots; f space;
        Printf.sprintf "%.4f" before; Printf.sprintf "%.4f" after;
        Printf.sprintf "%.4f" repaired ])
  in
  List.iter (Stats.Table.add_row t) rows;
  [ t ]


(* ------------------------------------------------------------------ *)
(* E16: failure recovery timeline (timed closures on a Simnet.Heap)   *)
(* ------------------------------------------------------------------ *)

let async_recovery ?(seed = 42) mode =
  let n = pick mode ~quick:120 ~full:256 in
  let kill_at = 10.0 in
  let horizon = 80.0 in
  let bucket_len = 10.0 in
  let probes_per_tick = pick mode ~quick:8 ~full:20 in
  let rng = Rng.create seed in
  let metric = Topology.generate Uniform_square ~n ~rng in
  let addrs = List.init n (fun i -> i) in
  let net, _ = Insert.build_incremental ~seed:(seed + 1) Config.default metric ~addrs in
  let objects = Workload.place_objects net ~count:(n / 4) ~replicas:1 in
  let guids = List.map (fun (o : Workload.placed_object) -> o.Workload.guid) objects in
  let server_ids =
    List.concat_map
      (fun (o : Workload.placed_object) ->
        List.map (fun (s : Node.t) -> s.Node.id) o.Workload.servers)
      objects
    |> List.fold_left (fun acc id -> Node_id.Set.add id acc) Node_id.Set.empty
  in
  (* One timeline of timed closures.  The soft-state daemons of Sections
     5.2/6.5 are steps that push their next step; only their steps (and
     the end of the heartbeat's timeout) move the network clock that
     soft-state expiry reads. *)
  let events = Simnet.Heap.create ~cmp:Float.compare in
  let rounds period = int_of_float (horizon /. period) in
  let set_clock t = net.Network.clock <- t in
  (* A sweep that met a dead neighbour waits out one probe timeout (the
     nodes' timeouts run concurrently) before its period starts again. *)
  let heartbeat_period = 8.0 and timeout = 2.0 in
  let rec heartbeat round t =
    set_clock t;
    let dead = ref 0 in
    Network.iter_alive net (fun owner ->
        dead := !dead + Delete.repair_owner net owner);
    let again t =
      if round < rounds heartbeat_period then
        Simnet.Heap.push events (t +. heartbeat_period) (heartbeat (round + 1))
    in
    if !dead = 0 then again t
    else
      Simnet.Heap.push events (t +. timeout) (fun t ->
          set_clock t;
          again t)
  in
  Simnet.Heap.push events heartbeat_period (heartbeat 1);
  let republish_period = 12.0 in
  let rec republish round t =
    set_clock t;
    ignore (Maintenance.expire_all net : int);
    ignore (Maintenance.republish_all net : int);
    if round < rounds republish_period then
      Simnet.Heap.push events (t +. republish_period) (republish (round + 1))
  in
  Simnet.Heap.push events republish_period (republish 1);
  (* mass silent failure at kill_at *)
  Simnet.Heap.push events kill_at (fun _ ->
      let victims =
        Network.alive_nodes net
        |> List.filter (fun (v : Node.t) -> not (Node_id.Set.mem v.Node.id server_ids))
        |> List.filteri (fun i _ -> i mod 6 = 0)
      in
      List.iter (Delete.fail net) victims);
  (* instantaneous availability at each virtual second 0 .. horizon-1 *)
  let buckets = int_of_float (horizon /. bucket_len) in
  let hits = Array.make buckets 0 and totals = Array.make buckets 0 in
  let prng = Rng.create (seed + 5) in
  let rec probe t =
    let b = min (buckets - 1) (int_of_float (t /. bucket_len)) in
    Network.without_charging net (fun () ->
        for _ = 1 to probes_per_tick do
          totals.(b) <- totals.(b) + 1;
          let client = Network.random_alive net in
          let guid = Rng.pick_list prng guids in
          (* probe with plain routing: no repair side effects, so the
             daemons alone drive recovery *)
          let res = Locate.locate ~variant:Route.Native net ~client guid in
          if Option.is_some res.Locate.server then hits.(b) <- hits.(b) + 1
        done);
    if t +. 1.0 < horizon then Simnet.Heap.push events (t +. 1.0) probe
  in
  Simnet.Heap.push events 0.0 probe;
  Simnet.Heap.drain events;
  let t =
    Stats.Table.create
      ~title:
        (Printf.sprintf
           "E16: asynchronous recovery after mass failure at t=%.0f (n=%d, heartbeat 8s, republish 12s)"
           kill_at n)
      ~columns:[ "virtual time"; "availability"; "P1 violations at end" ]
  in
  let v1_end = string_of_int (List.length (Verify.check_property1 net)) in
  for b = 0 to buckets - 1 do
    Stats.Table.add_row t
      [ Printf.sprintf "[%.0f, %.0f)" (float_of_int b *. bucket_len)
          (float_of_int (b + 1) *. bucket_len);
        Printf.sprintf "%.4f"
          (float_of_int hits.(b) /. float_of_int (max 1 totals.(b)));
        (if b = buckets - 1 then v1_end else "-") ]
  done;
  [ t ]

(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* Scale tier: the E1/E2/E4 claims re-measured at 10^5..10^6 nodes     *)
(* ------------------------------------------------------------------ *)

type scale_point = {
  sp_n : int;
  sp_build_wall_s : float;
  sp_wall_s : float;
  sp_stats : Static_build.stream_stats;
  sp_insert_fit_c : float;
  sp_locate_hops : float;
  sp_locate_success : float;
  sp_stretch_mean : float;
  sp_stretch_p95 : float;
  sp_bytes_per_node : float;
  sp_peak_rss_kb : int;
  sp_gc_top_heap_words : int;
  sp_minor_words : float;
  sp_audit_violations : int option;
}

(* Peak resident set (VmHWM) of this process in kB, from
   /proc/self/status; 0 when the file or the field is unavailable. *)
let peak_rss_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
      let rec go acc =
        match input_line ic with
        | exception End_of_file -> acc
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then begin
              let digits =
                String.to_seq line
                |> Seq.filter (fun c -> c >= '0' && c <= '9')
                |> String.of_seq
              in
              go (match int_of_string_opt digits with Some v -> v | None -> acc)
            end
            else go acc
      in
      let r = go 0 in
      close_in ic;
      r

(* One scale-tier size: streamed construction, then E2-style locate
   sampling (hop counts) and E4-style stretch sampling over published
   objects.  [now] injects wall-clock from the CLI (the library itself
   stays clock-free for deterministic replay); with the default it reports
   zeros for the wall fields and everything else is unaffected. *)
let scale_point ?(seed = 42) ?(domains = 1) ?(now = fun () -> 0.)
    ?(objects = 1000) ?(queries = 2000) ?(audit = false)
    ?(progress = fun (_ : string) -> ()) ~n () =
  progress (Printf.sprintf "n=%d: generating topology" n);
  let t0 = now () in
  let rng = Rng.create seed in
  let metric = Topology.generate Uniform_square ~n ~rng in
  (* the grid index was built under the generator's density assumption;
     rebuild it if that drifted (no-op for a fresh full-population index) *)
  ignore (Metric.rescale_index metric);
  let net, stats =
    Static_build.build_streamed ~seed:(seed + 1) ~domains
      ~progress:(fun ~inserted ~total ->
        if inserted mod 65536 = 0 || inserted = total then
          progress (Printf.sprintf "n=%d: %d/%d joined" n inserted total))
      Config.default metric ~n
  in
  let t_build = now () in
  progress (Printf.sprintf "n=%d: sampling locate/stretch" n);
  let objs = Workload.place_objects net ~count:(min objects n) ~replicas:1 in
  let qs = Workload.uniform_queries net ~objects:objs ~count:queries in
  let hops = ref [] and stretches = ref [] in
  let ok = ref 0 and total = ref 0 in
  List.iter
    (fun (q : Workload.query) ->
      incr total;
      let opt = Workload.optimal_distance net ~client:q.client q.obj in
      let res, cost =
        Network.measure net (fun () ->
            Locate.locate net ~client:q.client q.obj.guid)
      in
      match res.Locate.server with
      | Some _ ->
          incr ok;
          hops := float_of_int cost.Cost.hops :: !hops;
          stretches :=
            (if opt > 1e-12 then cost.Cost.latency /. opt else 1.0)
            :: !stretches
      | None -> ())
    qs;
  let audit_violations =
    if audit then begin
      progress (Printf.sprintf "n=%d: auditing" n);
      Some (List.length (Audit.run net).Audit.violations)
    end
    else None
  in
  let wall = now () -. t0 in
  let gc = Gc.quick_stat () in
  let fit = stats.Static_build.msgs_late.Static_build.mean /. (log2 n ** 2.) in
  ( net,
    {
      sp_n = n;
      sp_build_wall_s = t_build -. t0;
      sp_wall_s = wall;
      sp_stats = stats;
      sp_insert_fit_c = fit;
      sp_locate_hops = Stats.mean !hops;
      sp_locate_success = float_of_int !ok /. float_of_int (max 1 !total);
      sp_stretch_mean = Stats.mean !stretches;
      sp_stretch_p95 = Stats.percentile !stretches 0.95;
      sp_bytes_per_node =
        float_of_int stats.Static_build.footprint.Network.total_bytes
        /. float_of_int n;
      sp_peak_rss_kb = peak_rss_kb ();
      sp_gc_top_heap_words = gc.Gc.top_heap_words;
      sp_minor_words = gc.Gc.minor_words;
      sp_audit_violations = audit_violations;
    } )

let scale ?seed ?domains ?now ?objects ?queries ?audit ?progress ~sizes () =
  (* Sizes run sequentially, largest last, each network dropped before the
     next so peak residency is one mesh, not the sum. *)
  let points =
    List.map
      (fun n ->
        let _net, p =
          scale_point ?seed ?domains ?now ?objects ?queries ?audit ?progress
            ~n ()
        in
        p)
      sizes
  in
  let t =
    Stats.Table.create ~title:"Scale: streamed construction + E1/E2/E4 claims"
      ~columns:
        [ "n"; "build s"; "msgs(late)"; "c=msgs/log2^2 n"; "hops"; "stretch";
          "B/node"; "peak RSS MB"; "entries/node" ]
  in
  List.iter
    (fun p ->
      Stats.Table.add_row t
        [
          string_of_int p.sp_n;
          f p.sp_build_wall_s;
          f p.sp_stats.Static_build.msgs_late.Static_build.mean;
          f p.sp_insert_fit_c;
          f p.sp_locate_hops;
          f p.sp_stretch_mean;
          f p.sp_bytes_per_node;
          f (float_of_int p.sp_peak_rss_kb /. 1024.);
          f p.sp_stats.Static_build.entries.Static_build.mean;
        ])
    points;
  (points, t)

let all ?(seed = 42) ?(domains = 1) mode =
  [
    ("table1", table1 ~seed ~domains mode);
    ("stretch", stretch ~seed mode);
    ("nn_k", nn_k ~seed mode);
    ("insert_scaling", insert_scaling ~seed ~domains mode);
    ("multicast", multicast ~seed mode);
    ("surrogate", surrogate ~seed mode);
    ("availability", availability ~seed mode);
    ("concurrent_insert", concurrent_insert ~seed mode);
    ("prr_v0", prr_v0 ~seed ~domains mode);
    ("stub_locality", stub_locality ~seed mode);
    ("table_quality", table_quality ~seed ~domains mode);
    ("delete", delete ~seed mode);
    ("nn_vs_kr", nn_vs_kr ~seed mode);
    ("continual_optimization", continual_optimization ~seed mode);
    ("redundancy", redundancy ~seed ~domains mode);
    ("async_recovery", async_recovery ~seed mode);
  ]

let names =
  [
    "table1"; "stretch"; "nn_k"; "insert_scaling"; "multicast"; "surrogate";
    "availability"; "concurrent_insert"; "prr_v0"; "stub_locality";
    "table_quality"; "delete"; "nn_vs_kr"; "continual_optimization"; "redundancy";
    "async_recovery";
  ]

let by_name ?(seed = 42) ?(domains = 1) mode name =
  match name with
  | "table1" -> table1 ~seed ~domains mode
  | "stretch" -> stretch ~seed mode
  | "nn_k" -> nn_k ~seed mode
  | "insert_scaling" -> insert_scaling ~seed ~domains mode
  | "multicast" -> multicast ~seed mode
  | "surrogate" -> surrogate ~seed mode
  | "availability" -> availability ~seed mode
  | "concurrent_insert" -> concurrent_insert ~seed mode
  | "prr_v0" -> prr_v0 ~seed ~domains mode
  | "stub_locality" -> stub_locality ~seed mode
  | "table_quality" -> table_quality ~seed ~domains mode
  | "delete" -> delete ~seed mode
  | "nn_vs_kr" -> nn_vs_kr ~seed mode
  | "continual_optimization" -> continual_optimization ~seed mode
  | "redundancy" -> redundancy ~seed ~domains mode
  | "async_recovery" -> async_recovery ~seed mode
  | other -> invalid_arg ("Experiment.by_name: unknown experiment " ^ other)

let run_and_print ?(seed = 42) ?(domains = 1) mode which =
  let which = match which with [] -> names | _ :: _ -> which in
  List.iter
    (fun name ->
      let tables = by_name ~seed ~domains mode name in
      List.iter Stats.Table.print tables;
      print_newline ())
    which
