(* The hot-path data structures behind this PR's performance work:

   - the dense swap-remove alive array in Network (O(1) sampling) must track
     the true alive set exactly through arbitrary churn, and stay uniform;
   - the incremental core trie must match a trie rebuilt from scratch;
   - arena handles and node IDs must stay a bijection through churn, dead
     nodes included, since per-node state names nodes by handle;
   - the grid spatial index in Metric must agree with the brute-force scans
     bit-for-bit, tie-breaks included, on plane and torus point sets;
   - Parallel.map must produce identical results whatever the domain count,
     up to whole experiment tables (`--domains 1` vs `--domains 4`). *)

open Tapestry
module Rng = Simnet.Rng
module Metric = Simnet.Metric
module Topology = Simnet.Topology
module Parallel = Simnet.Parallel

let sorted_ids nodes =
  nodes
  |> List.map (fun (n : Node.t) -> Node_id.to_string n.Node.id)
  |> List.sort String.compare

(* --- alive array under churn --- *)

let test_alive_set_churn () =
  let n = 160 in
  let rng = Rng.create 99 in
  let pts = Array.init n (fun _ -> (Rng.float rng 1.0, Rng.float rng 1.0)) in
  let metric = Metric.of_points pts in
  let net = Network.create ~seed:7 Config.default metric in
  (* reference: id -> node for everything we believe alive *)
  let reference : Node.t Node_id.Tbl.t = Node_id.Tbl.create 64 in
  let check_step step =
    let want = Node_id.Tbl.fold (fun _ nd acc -> nd :: acc) reference [] in
    Alcotest.(check int)
      (Printf.sprintf "node_count after step %d" step)
      (List.length want) (Network.node_count net);
    Alcotest.(check (list string))
      (Printf.sprintf "alive set after step %d" step)
      (sorted_ids want)
      (sorted_ids (Network.alive_nodes net));
    (* core_nodes: the reference's core nodes, by descending ID *)
    let core =
      List.filter Node.is_core want
      |> List.sort (fun (a : Node.t) (b : Node.t) -> Node_id.compare b.Node.id a.Node.id)
    in
    Alcotest.(check (list string))
      (Printf.sprintf "core_nodes after step %d" step)
      (List.map (fun (nd : Node.t) -> Node_id.to_string nd.Node.id) core)
      (List.map (fun (nd : Node.t) -> Node_id.to_string nd.Node.id) (Network.core_nodes net));
    if Network.node_count net > 0 then begin
      let picked = Network.random_alive net in
      Alcotest.(check bool)
        (Printf.sprintf "random_alive is alive after step %d" step)
        true
        (Node_id.Tbl.mem reference picked.Node.id)
    end
  in
  let churn = Rng.create 13 in
  let next_addr = ref 0 in
  for step = 0 to 399 do
    let registered = Network.node_count net in
    if !next_addr < n && (registered = 0 || Rng.bool churn) then begin
      (* join: register as Inserting, sometimes activate immediately *)
      let node = Node.create Config.default ~id:(Network.fresh_id net) ~addr:!next_addr in
      incr next_addr;
      if Rng.bool churn then node.Node.status <- Node.Active;
      Network.register net node;
      if (match node.Node.status with Node.Inserting -> true | _ -> false)
         && Rng.bool churn
      then Network.activate net node;
      Node_id.Tbl.replace reference node.Node.id node
    end
    else if registered > 0 then begin
      let victim = Network.random_alive net in
      match (victim.Node.status, Rng.int churn 3) with
      | Node.Active, 0 ->
          (* announce departure but stay alive *)
          Network.begin_leaving net victim
      | _, _ ->
          Network.mark_dead net victim;
          Node_id.Tbl.remove reference victim.Node.id
    end;
    if step mod 20 = 0 then check_step step
  done;
  check_step 400

(* --- handle <-> ID bijection under churn --- *)

(* Pointer records, surrogate hints and route exclusion name nodes by
   arena handle, so they resolve to the node an ID lookup returns only
   while handles and IDs stay a bijection: [register] refuses a
   duplicate ID, dead nodes stay in the directory and handles are never
   reused.  A mesh in a 256-ID space is churned by joins, voluntary
   leaves and silent failures; then every registered handle, dead ones
   included, must round-trip through its ID, and [fresh_id] — whose
   draws collide often in so small a space — must never return a dead
   node's ID. *)
let test_handle_id_bijection () =
  let cfg = { Config.default with Config.base = 4; id_digits = 4 } in
  let rng = Rng.create 5 in
  let metric = Topology.generate Topology.Uniform_square ~n:120 ~rng in
  let net = Static_build.build ~seed:6 cfg metric ~addrs:(List.init 60 Fun.id) in
  let churn = Rng.create 17 in
  let next_addr = ref 60 and left = ref [] and failed = ref [] in
  for _ = 1 to 80 do
    match Rng.int churn 4 with
    | 0 | 1 when !next_addr < 120 ->
        ignore
          (Insert.insert net ~gateway:(Network.random_alive net)
             ~addr:!next_addr);
        incr next_addr
    | 2 ->
        let v = Network.random_alive net in
        ignore (Delete.voluntary net v);
        left := v.Node.id :: !left
    | _ ->
        let v = Network.random_alive net in
        Delete.fail net v;
        failed := v.Node.id :: !failed
  done;
  let dead = !left @ !failed in
  Alcotest.(check bool) "churn joined, left and failed nodes" true
    (List.length !left > 0 && List.length !failed > 0 && !next_addr > 80);
  let registered = ref 0 in
  Network.iter_registered net (fun (n : Node.t) ->
      let h = !registered in
      incr registered;
      let m = Network.node_of_handle net h in
      if m != n || n.Node.handle <> h then
        Alcotest.failf "handle %d does not name its arena node" h;
      match Network.find net n.Node.id with
      | Some found when found == n -> ()
      | _ ->
          Alcotest.failf "handle %d (%s, %s) does not round-trip through its ID"
            h (Node_id.to_string n.Node.id)
            (if Node.is_alive n then "alive" else "dead"));
  Alcotest.(check int) "one handle per address used" !next_addr !registered;
  List.iter
    (fun id ->
      match Network.find net id with
      | Some n when not (Node.is_alive n) -> ()
      | _ -> Alcotest.failf "dead %s left the directory" (Node_id.to_string id))
    dead;
  for _ = 1 to 500 do
    let id = Network.fresh_id net in
    if List.exists (Node_id.equal id) dead then
      Alcotest.failf "fresh_id returned dead %s" (Node_id.to_string id);
    if Option.is_some (Network.find net id) then
      Alcotest.failf "fresh_id returned registered %s" (Node_id.to_string id)
  done

let test_random_alive_uniform () =
  let n = 24 in
  let rng = Rng.create 5 in
  let pts = Array.init n (fun _ -> (Rng.float rng 1.0, Rng.float rng 1.0)) in
  let net = Network.create ~seed:11 Config.default (Metric.of_points pts) in
  for addr = 0 to n - 1 do
    let node = Node.create Config.default ~id:(Network.fresh_id net) ~addr in
    node.Node.status <- Node.Active;
    Network.register net node
  done;
  (* kill a few so the array has seen swap-removes before we sample *)
  for _ = 1 to 8 do
    Network.mark_dead net (Network.random_alive net)
  done;
  let alive = Network.node_count net in
  Alcotest.(check int) "16 survivors" 16 alive;
  let counts = Node_id.Tbl.create alive in
  let draws = 4000 in
  for _ = 1 to draws do
    let nd = Network.random_alive net in
    let c = Option.value ~default:0 (Node_id.Tbl.find_opt counts nd.Node.id) in
    Node_id.Tbl.replace counts nd.Node.id (c + 1)
  done;
  Alcotest.(check int) "every survivor sampled" alive (Node_id.Tbl.length counts);
  let expected = draws / alive in
  Node_id.Tbl.iter
    (fun id c ->
      if c < expected / 3 || c > expected * 3 then
        Alcotest.failf "node %s drawn %d times (expected about %d)"
          (Node_id.to_string id) c expected)
    counts

(* --- grid index vs brute oracles --- *)

let check_metric_equivalence ~what metric =
  let m = Metric.size metric in
  let qrng = Rng.create 21 in
  let diam = Metric.diameter metric ~sample:500 ~rng:(Rng.create 22) in
  for _ = 1 to 60 do
    let p = Rng.int qrng m in
    let r = Rng.float qrng (0.6 *. diam) in
    Alcotest.(check int)
      (Printf.sprintf "%s: ball_count p=%d r=%.3f" what p r)
      (Metric.ball_count_brute metric p r)
      (Metric.ball_count metric p r);
    Alcotest.(check (option int))
      (Printf.sprintf "%s: nearest_other p=%d" what p)
      (Metric.nearest_other_brute metric p)
      (Metric.nearest_other metric p)
  done;
  (* degenerate radii *)
  let p = Rng.int qrng m in
  Alcotest.(check int)
    (what ^ ": zero-radius ball is the point and its duplicates")
    (Metric.ball_count_brute metric p 0.)
    (Metric.ball_count metric p 0.);
  Alcotest.(check int)
    (what ^ ": whole-space ball")
    m
    (Metric.ball_count metric p (2. *. diam +. 1.))

let test_grid_plane () =
  let rng = Rng.create 31 in
  List.iter
    (fun n ->
      let pts = Array.init n (fun _ -> (Rng.float rng 1.0, Rng.float rng 1.0)) in
      let metric = Metric.of_points pts in
      Alcotest.(check bool) "plane metric is indexed" true (Metric.indexed metric);
      check_metric_equivalence ~what:(Printf.sprintf "plane n=%d" n) metric)
    [ 1; 7; 64; 300 ]

let test_grid_torus () =
  let rng = Rng.create 37 in
  List.iter
    (fun n ->
      let pts = Array.init n (fun _ -> (Rng.float rng 1.0, Rng.float rng 1.0)) in
      let metric = Metric.of_points_torus ~side:1.0 pts in
      Alcotest.(check bool) "torus metric is indexed" true (Metric.indexed metric);
      check_metric_equivalence ~what:(Printf.sprintf "torus n=%d" n) metric)
    [ 1; 7; 64; 300 ]

let test_grid_clustered_points () =
  (* clustered point sets stress uneven grid occupancy *)
  let rng = Rng.create 41 in
  let centers = Array.init 5 (fun _ -> (Rng.float rng 1.0, Rng.float rng 1.0)) in
  let pts =
    Array.init 200 (fun i ->
        let cx, cy = centers.(i mod Array.length centers) in
        (cx +. Rng.float rng 0.03, cy +. Rng.float rng 0.03))
  in
  check_metric_equivalence ~what:"clustered plane" (Metric.of_points pts);
  check_metric_equivalence ~what:"clustered torus"
    (Metric.of_points_torus ~side:1.2 pts)

let test_topology_metrics () =
  (* every generated topology, indexed or not, satisfies the same
     grid-vs-brute contract (non-indexed kinds trivially: both brute) *)
  List.iter
    (fun kind ->
      let rng = Rng.create 43 in
      let metric = Topology.generate kind ~n:120 ~rng in
      check_metric_equivalence ~what:(Topology.kind_name kind) metric)
    Topology.all_kinds

(* --- deterministic parallel map --- *)

let test_parallel_map_identical () =
  let f i =
    let rng = Parallel.task_rng ~seed:77 ~task:i in
    let acc = ref 0 in
    for _ = 1 to 50 do
      acc := !acc + Rng.int rng 1000
    done;
    (i, !acc)
  in
  let seq = Parallel.map ~domains:1 37 ~f in
  List.iter
    (fun d ->
      let par = Parallel.map ~domains:d 37 ~f in
      Alcotest.(check (array (pair int int)))
        (Printf.sprintf "map domains=1 vs domains=%d" d)
        seq par)
    [ 2; 3; 4; 8; 64 ];
  Alcotest.(check (array (pair int int))) "n=0" [||] (Parallel.map ~domains:4 0 ~f);
  let xs = [ "a"; "b"; "c"; "d"; "e" ] in
  Alcotest.(check (list string))
    "map_list keeps order"
    (List.mapi (fun i x -> Printf.sprintf "%d:%s" i x) xs)
    (Parallel.map_list ~domains:3 xs ~f:(fun i x -> Printf.sprintf "%d:%s" i x))

let test_task_rng_independent () =
  let a = Parallel.task_rng ~seed:5 ~task:0 in
  let b = Parallel.task_rng ~seed:5 ~task:1 in
  let a' = Parallel.task_rng ~seed:5 ~task:0 in
  Alcotest.(check int) "same (seed, task) replays" (Rng.int a 1000000)
    (Rng.int a' 1000000);
  let draws_a = List.init 20 (fun _ -> Rng.int a 100) in
  let draws_b = List.init 20 (fun _ -> Rng.int b 100) in
  Alcotest.(check bool) "different tasks give different streams" false
    (List.for_all2 Int.equal draws_a draws_b)

let test_experiment_domains_identical () =
  let render tables = String.concat "\n" (List.map Simnet.Stats.Table.render tables) in
  let one =
    render (Evaluation.Experiment.insert_scaling ~seed:42 ~domains:1 Evaluation.Experiment.Quick)
  in
  let four =
    render (Evaluation.Experiment.insert_scaling ~seed:42 ~domains:4 Evaluation.Experiment.Quick)
  in
  Alcotest.(check string) "insert_scaling tables bit-identical" one four;
  let one =
    render (Evaluation.Experiment.table_quality ~seed:42 ~domains:1 Evaluation.Experiment.Quick)
  in
  let three =
    render (Evaluation.Experiment.table_quality ~seed:42 ~domains:3 Evaluation.Experiment.Quick)
  in
  Alcotest.(check string) "table_quality tables bit-identical" one three

let () =
  Alcotest.run "scale"
    [
      ( "alive set",
        [
          Alcotest.test_case "exact under churn" `Quick test_alive_set_churn;
          Alcotest.test_case "uniform sampling" `Quick test_random_alive_uniform;
          Alcotest.test_case "handle-ID bijection under churn" `Quick
            test_handle_id_bijection;
        ] );
      ( "spatial index",
        [
          Alcotest.test_case "plane grid = brute" `Quick test_grid_plane;
          Alcotest.test_case "torus grid = brute" `Quick test_grid_torus;
          Alcotest.test_case "clustered points" `Quick test_grid_clustered_points;
          Alcotest.test_case "all topology kinds" `Quick test_topology_metrics;
        ] );
      ( "parallel map",
        [
          Alcotest.test_case "identical across domains" `Quick
            test_parallel_map_identical;
          Alcotest.test_case "task rngs independent" `Quick
            test_task_rng_independent;
          Alcotest.test_case "experiments identical across domains" `Slow
            test_experiment_domains_identical;
        ] );
    ]
