(* Tests for the Table-1 comparators: Chord, the centralized directory, the
   broadcast strawman and the PRR v.0 general-metric sampler. *)

module Rng = Simnet.Rng
module Metric = Simnet.Metric
module Topology = Simnet.Topology
module Cost = Simnet.Cost

let metric_of ?(n = 120) seed =
  let rng = Rng.create seed in
  Topology.generate Topology.Uniform_square ~n ~rng

(* --- Chord --- *)

let build_chord ?(n = 120) ?(seed = 1) () =
  let metric = metric_of ~n seed in
  let ch = Baselines.Chord.create ~seed:(seed + 1) ~m:20 ~succ_list:4 metric in
  ignore (Baselines.Chord.bootstrap ch ~addr:0);
  for addr = 1 to n - 1 do
    ignore (Baselines.Chord.join ch ~gateway:(Baselines.Chord.random_node ch) ~addr)
  done;
  Baselines.Chord.stabilize_all ch ~rounds:3;
  (ch, metric)

let test_chord_ring_complete () =
  let ch, _ = build_chord () in
  Alcotest.(check bool) "ring closed over all nodes" true (Baselines.Chord.check_ring ch)

let test_chord_lookup_owner () =
  let ch, _ = build_chord () in
  (* the lookup answer must be the key's true successor on the ring *)
  let keys =
    List.sort Int.compare
      (List.map Baselines.Chord.node_key (Baselines.Chord.nodes ch))
  in
  let true_successor k =
    match List.find_opt (fun nk -> nk >= k) keys with
    | Some nk -> nk
    | None -> List.hd keys
  in
  let rng = Rng.create 9 in
  for _ = 1 to 100 do
    let key = Rng.int rng (1 lsl 20) in
    let from = Baselines.Chord.random_node ch in
    let owner, _ = Baselines.Chord.lookup ch ~from key in
    Alcotest.(check int) "successor" (true_successor key) (Baselines.Chord.node_key owner)
  done

let test_chord_lookup_hops_logarithmic () =
  let ch, _ = build_chord ~n:200 () in
  let rng = Rng.create 10 in
  let hops =
    List.init 200 (fun _ ->
        let from = Baselines.Chord.random_node ch in
        let _, h = Baselines.Chord.lookup ch ~from (Rng.int rng (1 lsl 20)) in
        float_of_int h)
  in
  let mean = Simnet.Stats.mean hops in
  (* ~ (1/2) log2 200 ~ 3.8; anything near-linear would blow past this *)
  Alcotest.(check bool) (Printf.sprintf "mean hops %.1f < 12" mean) true (mean < 12.)

let test_chord_publish_locate () =
  let ch, _ = build_chord () in
  let rng = Rng.create 11 in
  for i = 1 to 50 do
    let server = Baselines.Chord.random_node ch in
    let key = Rng.int rng (1 lsl 20) in
    Baselines.Chord.publish ch ~server ~guid_key:key;
    let from = Baselines.Chord.random_node ch in
    match Baselines.Chord.locate ch ~from ~guid_key:key with
    | Some s ->
        Alcotest.(check int)
          (Printf.sprintf "locate %d returns the server" i)
          (Baselines.Chord.node_addr server)
          (Baselines.Chord.node_addr s)
    | None -> Alcotest.fail "published key not found"
  done

let test_chord_locate_missing () =
  let ch, _ = build_chord ~n:40 () in
  let from = Baselines.Chord.random_node ch in
  Alcotest.(check bool) "missing key" true
    (Baselines.Chord.locate ch ~from ~guid_key:12345 = None)

let test_chord_join_moves_keys () =
  (* pointers must follow ring ownership across joins *)
  let metric = metric_of ~n:60 77 in
  let ch = Baselines.Chord.create ~seed:78 ~m:20 ~succ_list:4 metric in
  ignore (Baselines.Chord.bootstrap ch ~addr:0);
  for addr = 1 to 29 do
    ignore (Baselines.Chord.join ch ~gateway:(Baselines.Chord.random_node ch) ~addr)
  done;
  Baselines.Chord.stabilize_all ch ~rounds:2;
  let rng = Rng.create 79 in
  let keys = List.init 40 (fun _ -> Rng.int rng (1 lsl 20)) in
  List.iter
    (fun k ->
      Baselines.Chord.publish ch ~server:(Baselines.Chord.random_node ch) ~guid_key:k)
    keys;
  for addr = 30 to 59 do
    ignore (Baselines.Chord.join ch ~gateway:(Baselines.Chord.random_node ch) ~addr)
  done;
  Baselines.Chord.stabilize_all ch ~rounds:3;
  List.iter
    (fun k ->
      let from = Baselines.Chord.random_node ch in
      Alcotest.(check bool)
        (Printf.sprintf "key %d survives 30 joins" k)
        true
        (Baselines.Chord.locate ch ~from ~guid_key:k <> None))
    keys

(* --- Central directory --- *)

let test_central_directory () =
  let metric = metric_of 20 in
  let dir = Baselines.Central_directory.create ~directory_addr:0 metric in
  Baselines.Central_directory.publish dir ~server_addr:5 ~guid_key:1;
  Baselines.Central_directory.publish dir ~server_addr:9 ~guid_key:1;
  Alcotest.(check int) "entries" 2 (Baselines.Central_directory.directory_entries dir);
  (match Baselines.Central_directory.locate dir ~client_addr:3 ~guid_key:1 with
  | Some addr -> Alcotest.(check bool) "a replica" true (addr = 5 || addr = 9)
  | None -> Alcotest.fail "should find");
  Alcotest.(check (option int)) "missing" None
    (Baselines.Central_directory.locate dir ~client_addr:3 ~guid_key:2);
  Baselines.Central_directory.unpublish dir ~server_addr:5 ~guid_key:1;
  Baselines.Central_directory.unpublish dir ~server_addr:9 ~guid_key:1;
  Alcotest.(check (option int)) "after unpublish" None
    (Baselines.Central_directory.locate dir ~client_addr:3 ~guid_key:1)

let test_central_directory_latency_floor () =
  (* the intro's pathology: cost ~ distance to the directory even when the
     object is next door *)
  let metric = Metric.of_points [| (0., 0.); (1., 0.); (1.0001, 0.) |] in
  let dir = Baselines.Central_directory.create ~directory_addr:0 metric in
  Baselines.Central_directory.publish dir ~server_addr:2 ~guid_key:7;
  let before = Cost.snapshot (Baselines.Central_directory.cost dir) in
  ignore (Baselines.Central_directory.locate dir ~client_addr:1 ~guid_key:7);
  let d = Cost.diff (Baselines.Central_directory.cost dir) before in
  (* optimal is 0.0001; the directory forces ~2.0 of travel *)
  Alcotest.(check bool) "pays the diameter" true (d.Cost.latency > 1.5)

(* --- Broadcast --- *)

let test_broadcast () =
  let n = 50 in
  let metric = metric_of ~n 30 in
  let bc = Baselines.Broadcast.create ~n metric in
  let before = Cost.snapshot (Baselines.Broadcast.cost bc) in
  Baselines.Broadcast.publish bc ~server_addr:7 ~guid_key:3;
  let d = Cost.diff (Baselines.Broadcast.cost bc) before in
  Alcotest.(check int) "publish floods n-1 messages" (n - 1) d.Cost.messages;
  (match Baselines.Broadcast.locate bc ~client_addr:12 ~guid_key:3 with
  | Some addr -> Alcotest.(check int) "server" 7 addr
  | None -> Alcotest.fail "must find");
  Alcotest.(check (option int)) "missing" None
    (Baselines.Broadcast.locate bc ~client_addr:12 ~guid_key:99)

let test_broadcast_stretch_one () =
  let n = 60 in
  let metric = metric_of ~n 31 in
  let bc = Baselines.Broadcast.create ~n metric in
  Baselines.Broadcast.publish bc ~server_addr:3 ~guid_key:1;
  Baselines.Broadcast.publish bc ~server_addr:40 ~guid_key:1;
  for client = 0 to n - 1 do
    let before = Cost.snapshot (Baselines.Broadcast.cost bc) in
    (match Baselines.Broadcast.locate bc ~client_addr:client ~guid_key:1 with
    | Some _ -> ()
    | None -> Alcotest.fail "must find");
    let d = Cost.diff (Baselines.Broadcast.cost bc) before in
    let opt = min (Metric.dist metric client 3) (Metric.dist metric client 40) in
    Alcotest.(check (float 1e-9)) "exactly the optimal distance" opt d.Cost.latency
  done

(* --- PRR v.0 --- *)

let test_prr_v0_finds_everything () =
  let metric = metric_of ~n:100 40 in
  let p = Baselines.Prr_v0.build ~seed:41 metric in
  let rng = Rng.create 42 in
  let misses = ref 0 in
  for k = 1 to 150 do
    let server = Rng.int rng 100 in
    Baselines.Prr_v0.publish p ~server_addr:server ~guid_key:k;
    let client = Rng.int rng 100 in
    match Baselines.Prr_v0.locate p ~client_addr:client ~guid_key:k with
    | Some s when s = server -> ()
    | Some _ -> Alcotest.fail "wrong server"
    | None -> incr misses
  done;
  (* the scheme is randomized; S_{0,0}'s singleton root makes a full miss
     possible only if the root's pointer list lost a coin flip on every
     level, which the theorem bounds away — allow a tiny residue *)
  Alcotest.(check bool) (Printf.sprintf "misses %d <= 8" !misses) true (!misses <= 8)

let test_prr_v0_space_polylog () =
  let n = 256 in
  let metric = metric_of ~n 43 in
  let p = Baselines.Prr_v0.build ~seed:44 metric in
  let per_node = Baselines.Prr_v0.space_per_node p in
  let log2n = log (float_of_int n) /. log 2. in
  (* representative tables are <= levels*width = 3 log^2 n entries *)
  Alcotest.(check bool)
    (Printf.sprintf "space %.0f within 4 log^2 n = %.0f" per_node (4. *. log2n ** 2.))
    true
    (per_node <= 4. *. (log2n ** 2.))

let test_prr_v0_levels_and_width () =
  let metric = metric_of ~n:128 45 in
  let p = Baselines.Prr_v0.build ~seed:46 ~c:2 metric in
  Alcotest.(check int) "levels = log2 n" 7 (Baselines.Prr_v0.levels p);
  Alcotest.(check int) "width = c log2 n" 14 (Baselines.Prr_v0.width p)

let test_prr_v0_stretch_polylog_general_metric () =
  (* Theorem 7's claim on a metric with no growth structure at all *)
  let n = 128 in
  let rng = Rng.create 47 in
  let metric = Topology.generate Topology.Random_metric ~n ~rng in
  let p = Baselines.Prr_v0.build ~seed:48 metric in
  let stretches = ref [] in
  for k = 1 to 200 do
    let server = Rng.int rng n in
    Baselines.Prr_v0.publish p ~server_addr:server ~guid_key:k;
    let client = Rng.int rng n in
    if client <> server then begin
      let before = Cost.snapshot (Baselines.Prr_v0.cost p) in
      match Baselines.Prr_v0.locate p ~client_addr:client ~guid_key:k with
      | Some _ ->
          let d = Cost.diff (Baselines.Prr_v0.cost p) before in
          stretches := (d.Cost.latency /. Metric.dist metric client server) :: !stretches
      | None -> ()
    end
  done;
  let s = Simnet.Stats.summarize !stretches in
  let log2n = log (float_of_int n) /. log 2. in
  (* total latency is bounded by ~ d log^2 n in the theorem; mean should sit
     far below that bound on random instances *)
  Alcotest.(check bool)
    (Printf.sprintf "mean stretch %.1f < log^2 n = %.1f" s.Simnet.Stats.mean (log2n ** 2.))
    true
    (s.Simnet.Stats.mean < log2n ** 2.)


(* --- Pastry --- *)

let build_pastry ?(n = 120) ?(seed = 50) () =
  let metric = metric_of ~n seed in
  let pa = Baselines.Pastry.create ~seed:(seed + 1) Tapestry.Config.default metric in
  ignore (Baselines.Pastry.bootstrap pa ~addr:0);
  for addr = 1 to n - 1 do
    ignore (Baselines.Pastry.join pa ~gateway:(Baselines.Pastry.random_node pa) ~addr)
  done;
  (pa, metric)

let test_pastry_routes_converge () =
  let pa, _ = build_pastry () in
  Alcotest.(check bool) "all sources agree with the numeric oracle" true
    (Baselines.Pastry.check_routes_converge pa ~samples:40)

let test_pastry_publish_locate () =
  let pa, _ = build_pastry () in
  let rng = Rng.create 51 in
  for _ = 1 to 60 do
    let server = Baselines.Pastry.random_node pa in
    let guid = Tapestry.Node_id.random ~base:16 ~len:8 rng in
    Baselines.Pastry.publish pa ~server guid;
    let from = Baselines.Pastry.random_node pa in
    match Baselines.Pastry.locate pa ~from guid with
    | Some s ->
        Alcotest.(check int) "server found"
          (Baselines.Pastry.node_addr server)
          (Baselines.Pastry.node_addr s)
    | None -> Alcotest.fail "published object must be found"
  done

let test_pastry_hops_logarithmic () =
  let pa, _ = build_pastry ~n:200 () in
  let rng = Rng.create 52 in
  let hops =
    List.init 150 (fun _ ->
        let from = Baselines.Pastry.random_node pa in
        let guid = Tapestry.Node_id.random ~base:16 ~len:8 rng in
        let _, h = Baselines.Pastry.route pa ~from guid in
        float_of_int h)
    |> Simnet.Stats.mean
  in
  Alcotest.(check bool) (Printf.sprintf "mean hops %.1f < 8" hops) true (hops < 8.)

let test_pastry_missing () =
  let pa, _ = build_pastry ~n:40 () in
  let rng = Rng.create 53 in
  let from = Baselines.Pastry.random_node pa in
  Alcotest.(check bool) "missing object" true
    (Baselines.Pastry.locate pa ~from (Tapestry.Node_id.random ~base:16 ~len:8 rng) = None)

(* --- CAN --- *)

let build_can ?(n = 120) ?(seed = 60) ?(dims = 2) () =
  let metric = metric_of ~n seed in
  let ca = Baselines.Can.create ~seed:(seed + 1) ~dims metric in
  ignore (Baselines.Can.bootstrap ca ~addr:0);
  for addr = 1 to n - 1 do
    ignore (Baselines.Can.join ca ~gateway:(Baselines.Can.random_node ca) ~addr)
  done;
  ca

let test_can_zones_partition () =
  let ca = build_can () in
  Alcotest.(check bool) "zones tile the space" true
    (Baselines.Can.check_zones_partition ca ~samples:1000)

let test_can_routing_reaches_owner () =
  let ca = build_can () in
  for k = 1 to 100 do
    let p = Baselines.Can.point_of_key ca k in
    let from = Baselines.Can.random_node ca in
    let reached, _ = Baselines.Can.route ca ~from p in
    let oracle = Baselines.Can.owner_of ca p in
    Alcotest.(check int) "greedy routing reaches the owner"
      (Baselines.Can.node_addr oracle)
      (Baselines.Can.node_addr reached)
  done

let test_can_publish_locate () =
  let ca = build_can () in
  for k = 1 to 60 do
    let server = Baselines.Can.random_node ca in
    Baselines.Can.publish ca ~server ~guid_key:k;
    let from = Baselines.Can.random_node ca in
    match Baselines.Can.locate ca ~from ~guid_key:k with
    | Some s ->
        Alcotest.(check int) "server" (Baselines.Can.node_addr server)
          (Baselines.Can.node_addr s)
    | None -> Alcotest.fail "published key not found"
  done

let test_can_dimension_tradeoff () =
  (* higher d: more neighbors, fewer hops (the O(d n^{1/d}) trade-off) *)
  let hops_of dims =
    let ca = build_can ~n:150 ~seed:61 ~dims () in
    let total = ref 0 in
    for k = 1 to 80 do
      let from = Baselines.Can.random_node ca in
      let _, h = Baselines.Can.route ca ~from (Baselines.Can.point_of_key ca k) in
      total := !total + h
    done;
    float_of_int !total /. 80.
  in
  let h2 = hops_of 2 and h4 = hops_of 4 in
  Alcotest.(check bool)
    (Printf.sprintf "d=4 (%.1f) routes in fewer hops than d=2 (%.1f)" h4 h2)
    true (h4 < h2)

(* --- Karger-Ruhl --- *)

let test_kr_exactness_scales_with_sample () =
  let metric =
    let rng = Rng.create 70 in
    Topology.generate Topology.Uniform_torus ~n:150 ~rng
  in
  let exact s =
    let kr = Baselines.Karger_ruhl.build ~seed:71 ~sample_size:s metric in
    let rng = Rng.create 72 in
    let ok = ref 0 in
    for _ = 1 to 100 do
      let target = Rng.int rng 150 and start = Rng.int rng 150 in
      let a = Baselines.Karger_ruhl.query kr ~start ~target in
      match Metric.nearest_other metric target with
      | Some truth
        when Metric.dist metric target a.Baselines.Karger_ruhl.nearest
             <= Metric.dist metric target truth +. 1e-12 ->
          incr ok
      | _ -> ()
    done;
    !ok
  in
  let small = exact 8 and large = exact 96 in
  Alcotest.(check bool)
    (Printf.sprintf "s=96 (%d) beats s=8 (%d)" large small)
    true (large > small);
  Alcotest.(check bool) (Printf.sprintf "s=96 nearly exact (%d/100)" large) true (large >= 85)

let test_kr_space_grows_with_sample () =
  let metric = metric_of ~n:128 73 in
  let s24 = Baselines.Karger_ruhl.build ~sample_size:24 metric in
  let s96 = Baselines.Karger_ruhl.build ~sample_size:96 metric in
  Alcotest.(check bool) "space ordering" true
    (Baselines.Karger_ruhl.space_per_node s96 > Baselines.Karger_ruhl.space_per_node s24)

let test_kr_query_terminates_from_anywhere () =
  let metric = metric_of ~n:100 74 in
  let kr = Baselines.Karger_ruhl.build metric in
  for start = 0 to 99 do
    let a = Baselines.Karger_ruhl.query kr ~start ~target:((start + 37) mod 100) in
    Alcotest.(check bool) "answer differs from target" true
      (a.Baselines.Karger_ruhl.nearest <> (start + 37) mod 100)
  done

(* --- Thorup-Zwick --- *)

let test_tz_distance_never_underestimates () =
  let rng = Rng.create 80 in
  let metric = Topology.generate Topology.Random_metric ~n:100 ~rng in
  let tz = Baselines.Thorup_zwick.build ~seed:81 metric in
  let bound = float_of_int ((2 * Baselines.Thorup_zwick.k tz) - 1) in
  for _ = 1 to 400 do
    let u = Rng.int rng 100 and v = Rng.int rng 100 in
    let est = Baselines.Thorup_zwick.approx_distance tz u v in
    let true_d = Metric.dist metric u v in
    if est < true_d -. 1e-9 then Alcotest.fail "oracle underestimated";
    if u <> v && est > (bound *. true_d) +. 1e-9 then
      Alcotest.failf "stretch bound violated: %f > %f" (est /. true_d) bound
  done

let test_tz_locates_everything () =
  let rng = Rng.create 82 in
  let metric = Topology.generate Topology.Star ~n:120 ~rng in
  let tz = Baselines.Thorup_zwick.build ~seed:83 metric in
  for kk = 1 to 150 do
    let server = Rng.int rng 120 in
    Baselines.Thorup_zwick.publish tz ~server_addr:server ~guid_key:kk;
    let client = Rng.int rng 120 in
    match Baselines.Thorup_zwick.locate tz ~client_addr:client ~guid_key:kk with
    | Some s -> Alcotest.(check int) "server" server s
    | None -> Alcotest.fail "registration/probe sets must intersect"
  done

let test_tz_space_beats_prr_v0 () =
  (* the whole point of the citation: an O(k n^{1/k}) bunch per node instead
     of O(log^2 n) samples *)
  let metric = metric_of ~n:200 84 in
  let tz = Baselines.Thorup_zwick.build ~seed:85 metric in
  let p = Baselines.Prr_v0.build ~seed:86 metric in
  Alcotest.(check bool) "TZ is much smaller" true
    (Baselines.Thorup_zwick.space_per_node tz
    < Baselines.Prr_v0.space_per_node p /. 4.)

let test_tz_small_k () =
  let metric = metric_of ~n:60 87 in
  let tz = Baselines.Thorup_zwick.build ~seed:88 ~k:2 metric in
  Alcotest.(check int) "k" 2 (Baselines.Thorup_zwick.k tz);
  let rng = Rng.create 89 in
  for _ = 1 to 200 do
    let u = Rng.int rng 60 and v = Rng.int rng 60 in
    let est = Baselines.Thorup_zwick.approx_distance tz u v in
    if u <> v && est > (3. *. Metric.dist metric u v) +. 1e-9 then
      Alcotest.fail "k=2 stretch must be <= 3"
  done

let () =
  Alcotest.run "baselines"
    [
      ( "chord",
        [
          Alcotest.test_case "ring complete" `Quick test_chord_ring_complete;
          Alcotest.test_case "lookup = true successor" `Quick test_chord_lookup_owner;
          Alcotest.test_case "hops logarithmic" `Quick test_chord_lookup_hops_logarithmic;
          Alcotest.test_case "publish/locate" `Quick test_chord_publish_locate;
          Alcotest.test_case "missing key" `Quick test_chord_locate_missing;
          Alcotest.test_case "joins move keys" `Quick test_chord_join_moves_keys;
        ] );
      ( "central directory",
        [
          Alcotest.test_case "basic" `Quick test_central_directory;
          Alcotest.test_case "latency floor" `Quick test_central_directory_latency_floor;
        ] );
      ( "broadcast",
        [
          Alcotest.test_case "flood + locate" `Quick test_broadcast;
          Alcotest.test_case "stretch one" `Quick test_broadcast_stretch_one;
        ] );
      ( "pastry",
        [
          Alcotest.test_case "routes converge" `Quick test_pastry_routes_converge;
          Alcotest.test_case "publish/locate" `Quick test_pastry_publish_locate;
          Alcotest.test_case "hops logarithmic" `Quick test_pastry_hops_logarithmic;
          Alcotest.test_case "missing object" `Quick test_pastry_missing;
        ] );
      ( "can",
        [
          Alcotest.test_case "zones partition" `Quick test_can_zones_partition;
          Alcotest.test_case "routing reaches owner" `Quick test_can_routing_reaches_owner;
          Alcotest.test_case "publish/locate" `Quick test_can_publish_locate;
          Alcotest.test_case "dimension trade-off" `Quick test_can_dimension_tradeoff;
        ] );
      ( "karger-ruhl",
        [
          Alcotest.test_case "exactness vs sample size" `Quick test_kr_exactness_scales_with_sample;
          Alcotest.test_case "space vs sample size" `Quick test_kr_space_grows_with_sample;
          Alcotest.test_case "terminates from anywhere" `Quick test_kr_query_terminates_from_anywhere;
        ] );
      ( "thorup-zwick",
        [
          Alcotest.test_case "oracle bounds" `Quick test_tz_distance_never_underestimates;
          Alcotest.test_case "locates everything" `Quick test_tz_locates_everything;
          Alcotest.test_case "space beats prr_v0" `Quick test_tz_space_beats_prr_v0;
          Alcotest.test_case "k=2 stretch <= 3" `Quick test_tz_small_k;
        ] );
      ( "prr v0",
        [
          Alcotest.test_case "finds everything" `Quick test_prr_v0_finds_everything;
          Alcotest.test_case "space polylog" `Quick test_prr_v0_space_polylog;
          Alcotest.test_case "levels/width" `Quick test_prr_v0_levels_and_width;
          Alcotest.test_case "general-metric stretch" `Quick
            test_prr_v0_stretch_polylog_general_metric;
        ] );
    ]
