(* Unit tests for the simulation substrate. *)

open Simnet

let check_float = Alcotest.(check (float 1e-9))

(* --- Heap --- *)

let test_heap_order () =
  let h = Heap.create ~cmp:Int.compare in
  List.iter (fun k -> Heap.push h k k) [ 5; 1; 4; 1; 3; 9; 0 ];
  let keys = List.map fst (Heap.to_sorted_list h) in
  Alcotest.(check (list int)) "sorted drain" [ 0; 1; 1; 3; 4; 5; 9 ] keys

let test_heap_stability () =
  let h = Heap.create ~cmp:Int.compare in
  Heap.push h 1 "first";
  Heap.push h 1 "second";
  Heap.push h 1 "third";
  let vals = List.map snd (Heap.to_sorted_list h) in
  Alcotest.(check (list string)) "FIFO among equal keys"
    [ "first"; "second"; "third" ] vals

let test_heap_peek_pop () =
  let h = Heap.create ~cmp:Int.compare in
  Alcotest.(check bool) "empty" true (Heap.is_empty h);
  Alcotest.(check (option (pair int string))) "peek empty" None (Heap.peek h);
  Heap.push h 2 "b";
  Heap.push h 1 "a";
  Alcotest.(check (option (pair int string))) "peek min" (Some (1, "a")) (Heap.peek h);
  Alcotest.(check int) "length" 2 (Heap.length h);
  ignore (Heap.pop_exn h);
  Alcotest.(check (option (pair int string))) "next" (Some (2, "b")) (Heap.peek h)

let test_heap_pop_exn_empty () =
  let h = Heap.create ~cmp:Int.compare in
  Alcotest.check_raises "pop_exn raises"
    (Invalid_argument "Heap.pop_exn: empty heap") (fun () ->
      ignore (Heap.pop_exn h))

let test_heap_large () =
  let h = Heap.create ~cmp:Int.compare in
  let rng = Rng.create 1 in
  for _ = 1 to 5000 do
    let k = Rng.int rng 1000 in
    Heap.push h k k
  done;
  let sorted = List.map fst (Heap.to_sorted_list h) in
  let rec ascending = function
    | a :: (b :: _ as rest) -> a <= b && ascending rest
    | _ -> true
  in
  Alcotest.(check bool) "5000 elements drain sorted" true (ascending sorted)

(* --- Rng --- *)

let test_rng_determinism () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_bounds () =
  let rng = Rng.create 3 in
  for _ = 1 to 10000 do
    let v = Rng.int rng 16 in
    if v < 0 || v >= 16 then Alcotest.failf "out of range: %d" v;
    let f = Rng.float rng 2.5 in
    if f < 0. || f >= 2.5 then Alcotest.failf "float out of range: %f" f
  done

let test_rng_split_independent () =
  let parent = Rng.create 11 in
  let child = Rng.split parent in
  let xs = List.init 50 (fun _ -> Rng.int parent 1000000) in
  let ys = List.init 50 (fun _ -> Rng.int child 1000000) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

let test_rng_shuffle_permutation () =
  let rng = Rng.create 5 in
  let a = Array.init 100 (fun i -> i) in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort Int.compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 100 (fun i -> i)) sorted

let test_rng_exponential_positive () =
  let rng = Rng.create 13 in
  for _ = 1 to 1000 do
    let x = Rng.exponential rng ~mean:5.0 in
    if x < 0. then Alcotest.fail "negative exponential draw"
  done

(* --- Stats --- *)

let test_stats_summary () =
  let s = Stats.summarize [ 1.; 2.; 3.; 4.; 5. ] in
  check_float "mean" 3.0 s.Stats.mean;
  check_float "min" 1.0 s.Stats.min;
  check_float "max" 5.0 s.Stats.max;
  check_float "p50" 3.0 s.Stats.p50

let test_stats_empty () =
  let s = Stats.summarize [] in
  Alcotest.(check int) "n" 0 s.Stats.n

let test_stats_gini () =
  check_float "uniform gini" 0.0 (Stats.gini [ 5.; 5.; 5.; 5. ]);
  let concentrated = Stats.gini [ 0.; 0.; 0.; 100. ] in
  Alcotest.(check bool) "concentrated high" true (concentrated > 0.7)

let test_stats_linear_fit () =
  let slope, intercept = Stats.linear_fit [ (0., 1.); (1., 3.); (2., 5.) ] in
  check_float "slope" 2.0 slope;
  check_float "intercept" 1.0 intercept

let test_stats_percentile () =
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  check_float "p50" 50. (Stats.percentile xs 0.5);
  check_float "p99" 99. (Stats.percentile xs 0.99);
  check_float "p100" 100. (Stats.percentile xs 1.0)

let test_stats_table_render () =
  let t = Stats.Table.create ~title:"t" ~columns:[ "a"; "bb" ] in
  Stats.Table.add_row t [ "1"; "2" ];
  let s = Stats.Table.render t in
  Alcotest.(check bool) "has title" true
    (String.length s > 0 && String.sub s 0 4 = "== t");
  Alcotest.check_raises "arity" (Invalid_argument "Stats.Table.add_row: wrong arity")
    (fun () -> Stats.Table.add_row t [ "only-one" ])

(* --- Metric --- *)

let test_metric_euclidean () =
  let m = Metric.of_points [| (0., 0.); (3., 4.) |] in
  check_float "3-4-5" 5.0 (Metric.dist m 0 1);
  check_float "symmetric" (Metric.dist m 0 1) (Metric.dist m 1 0);
  check_float "self" 0.0 (Metric.dist m 0 0)

let test_metric_torus_wrap () =
  let m = Metric.of_points_torus ~side:1.0 [| (0.05, 0.5); (0.95, 0.5) |] in
  check_float "wraps around" 0.1 (Metric.dist m 0 1)

let test_metric_ball () =
  let m = Metric.of_points [| (0., 0.); (1., 0.); (2., 0.); (5., 0.) |] in
  Alcotest.(check int) "ball count" 3 (Metric.ball_count m 0 2.0);
  Alcotest.(check int) "ball count brute" 3 (Metric.ball_count_brute m 0 2.0)

let test_metric_nearest_other () =
  let m = Metric.of_points [| (0., 0.); (10., 0.); (1., 0.) |] in
  Alcotest.(check (option int)) "nearest" (Some 2) (Metric.nearest_other m 0)

let test_metric_triangle_random () =
  (* the random-metric generator must satisfy the triangle inequality *)
  let rng = Rng.create 17 in
  let m = Topology.generate Topology.Random_metric ~n:30 ~rng in
  for i = 0 to 29 do
    for j = 0 to 29 do
      for k = 0 to 29 do
        let direct = Metric.dist m i j in
        let via = Metric.dist m i k +. Metric.dist m k j in
        if direct > via +. 1e-9 then
          Alcotest.failf "triangle violated: d(%d,%d)=%f > %f" i j direct via
      done
    done
  done

let test_expansion_estimates () =
  let rng = Rng.create 23 in
  let torus = Topology.generate Topology.Uniform_torus ~n:400 ~rng in
  let c_torus = Metric.expansion_estimate torus ~samples:150 ~rng in
  Alcotest.(check bool) "torus small expansion" true (c_torus < 12.);
  let star = Topology.generate Topology.Star ~n:400 ~rng in
  let c_star = Metric.expansion_estimate star ~samples:150 ~rng in
  Alcotest.(check bool)
    (Printf.sprintf "star blows up (torus %.1f < star %.1f)" c_torus c_star)
    true
    (c_star > 3. *. c_torus)

(* --- Topology --- *)

let test_topologies_generate () =
  let rng = Rng.create 29 in
  List.iter
    (fun kind ->
      let m = Topology.generate kind ~n:64 ~rng in
      Alcotest.(check int) (Topology.kind_name kind ^ " size") 64 (Metric.size m);
      (* spot-check symmetry and identity *)
      check_float "self distance" 0. (Metric.dist m 5 5);
      check_float "symmetry"
        (Metric.dist m 3 40)
        (Metric.dist m 40 3))
    Topology.all_kinds

let test_ring_metric () =
  let rng = Rng.create 1 in
  let m = Topology.generate Topology.Ring ~n:10 ~rng in
  check_float "adjacent" 0.1 (Metric.dist m 0 1);
  check_float "wrap" 0.1 (Metric.dist m 0 9);
  check_float "opposite" 0.5 (Metric.dist m 0 5)

(* --- Graph --- *)

let test_graph_dijkstra () =
  let g = Graph.create 4 in
  Graph.add_edge g 0 1 1.0;
  Graph.add_edge g 1 2 2.0;
  Graph.add_edge g 0 2 10.0;
  Graph.add_edge g 2 3 1.0;
  let d = Graph.dijkstra g 0 in
  check_float "direct" 1.0 d.(1);
  check_float "via 1" 3.0 d.(2);
  check_float "chain" 4.0 d.(3)

let test_graph_min_edge_kept () =
  let g = Graph.create 2 in
  Graph.add_edge g 0 1 5.0;
  Graph.add_edge g 0 1 2.0;
  check_float "min weight" 2.0 (Graph.dijkstra g 0).(1)

let test_graph_disconnected () =
  let g = Graph.create 3 in
  Graph.add_edge g 0 1 1.0;
  Alcotest.(check bool) "not connected" false (Graph.connected g);
  Alcotest.check_raises "to_metric fails"
    (Failure "Graph.to_metric: disconnected graph") (fun () ->
      ignore (Graph.to_metric g))

let test_graph_metric_triangle () =
  let rng = Rng.create 31 in
  let g = Graph.create 20 in
  (* random connected graph: spanning chain + extra edges *)
  for i = 0 to 18 do
    Graph.add_edge g i (i + 1) (1. +. Rng.float rng 3.)
  done;
  for _ = 1 to 20 do
    Graph.add_edge g (Rng.int rng 20) (Rng.int rng 20) (1. +. Rng.float rng 5.)
  done;
  let m = Graph.to_metric g in
  for i = 0 to 19 do
    for j = 0 to 19 do
      for k = 0 to 19 do
        if Metric.dist m i j > Metric.dist m i k +. Metric.dist m k j +. 1e-9 then
          Alcotest.fail "shortest-path metric must satisfy the triangle inequality"
      done
    done
  done

(* --- Transit-stub --- *)

let test_transit_stub_structure () =
  let rng = Rng.create 37 in
  let p = Transit_stub.default_params in
  let ts = Transit_stub.generate p ~rng in
  let expected_stubs = p.Transit_stub.transit_domains * p.Transit_stub.transit_size
                       * p.Transit_stub.stubs_per_transit in
  Alcotest.(check int) "stub count" expected_stubs (Transit_stub.stub_count ts);
  Alcotest.(check int) "hosts"
    (expected_stubs * p.Transit_stub.stub_size)
    (List.length (Transit_stub.hosts ts));
  (* transit nodes have no stub *)
  Alcotest.(check (option int)) "transit node" None (Transit_stub.stub_of ts 0)

let test_transit_stub_latency_separation () =
  let rng = Rng.create 41 in
  let ts = Transit_stub.generate Transit_stub.default_params ~rng in
  let m = Transit_stub.metric ts in
  (* mean intra-stub distance must be much below mean inter-stub distance *)
  let hosts = Array.of_list (Transit_stub.hosts ts) in
  let intra = ref [] and inter = ref [] in
  Array.iter
    (fun a ->
      Array.iter
        (fun b ->
          if a < b then
            if Transit_stub.same_stub ts a b then
              intra := Metric.dist m a b :: !intra
            else inter := Metric.dist m a b :: !inter)
        hosts)
    hosts;
  let mi = Stats.mean !intra and me = Stats.mean !inter in
  Alcotest.(check bool)
    (Printf.sprintf "intra %.1f << inter %.1f" mi me)
    true
    (me > 5. *. mi)

(* --- Cost --- *)

let test_cost_accounting () =
  let c = Cost.make () in
  Cost.send c ~dist:2.0;
  Cost.send c ~dist:3.0;
  Cost.message c ~dist:1.0;
  Alcotest.(check int) "messages" 3 c.Cost.messages;
  Alcotest.(check int) "hops" 2 c.Cost.hops;
  check_float "latency" 6.0 c.Cost.latency;
  let snap = Cost.snapshot c in
  Cost.send c ~dist:1.0;
  let d = Cost.diff (Cost.snapshot c) snap in
  Alcotest.(check int) "diff messages" 1 d.Cost.messages;
  Cost.zero c;
  Alcotest.(check int) "zeroed" 0 c.Cost.messages

(* --- Heap.drain: a timeline of timed closures --- *)

let timeline () = Heap.create ~cmp:Float.compare

let test_drain_ordering () =
  let h = timeline () in
  let log = ref [] and last = ref 0. in
  let run name t =
    log := name :: !log;
    last := t
  in
  Heap.push h 2.0 (run "b");
  Heap.push h 1.0 (fun t ->
      run "a" t;
      Heap.push h (t +. 2.0) (run "c"));
  Heap.drain h;
  Alcotest.(check (list string)) "virtual-time order" [ "c"; "b"; "a" ] !log;
  check_float "time of last event" 3.0 !last;
  Alcotest.(check bool) "drained" true (Heap.is_empty h)

let test_drain_ties () =
  let h = timeline () in
  let log = ref [] in
  let run name _ = log := name :: !log in
  Heap.push h 1.0 (run "x");
  Heap.push h 0.5 (fun t -> Heap.push h (t +. 0.5) (run "z"));
  Heap.push h 1.0 (run "y");
  Heap.drain h;
  Alcotest.(check (list string)) "equal times run in push order"
    [ "x"; "y"; "z" ] (List.rev !log)

let test_drain_same_time_push () =
  let h = timeline () in
  let log = ref [] in
  let run name _ = log := name :: !log in
  Heap.push h 1.0 (fun t ->
      run "x" t;
      Heap.push h t (run "w"));
  Heap.push h 1.0 (run "y");
  Heap.push h 2.0 (run "later");
  Heap.drain h;
  Alcotest.(check (list string))
    "a push for the current time runs after the events queued for it"
    [ "x"; "y"; "w"; "later" ] (List.rev !log)

(* --- Hist --- *)

(* The bucket lower edge [Hist.quantile] reports for one sample [v], by
   the [Float.frexp] rule: 32 mantissa strips per binary octave, octaves
   2^-32 .. 2^31, everything below in bucket 0. *)
let frexp_edge v =
  let edge e si = Float.ldexp (0.5 +. (float_of_int si /. 64.)) e in
  let m, e = Float.frexp v in
  if v <= 0. || e < -32 then edge (-32) 0
  else if e > 31 then edge 31 31
  else edge e (int_of_float ((m -. 0.5) *. 64.))

let test_hist_buckets () =
  let rng = Rng.create 5 in
  let samples =
    [ 1e-320; 4.9e-324; Float.min_float; 2.3e-10; 1e-4; 0.5; 1.; 3.; 2e9;
      1e300 ]
    @ List.init 2000 (fun _ ->
          Float.ldexp (0.5 +. Rng.float rng 0.5) (Rng.int rng 100 - 50))
  in
  List.iter
    (fun v ->
      let h = Stats.Hist.create () in
      Stats.Hist.add h v;
      Alcotest.(check (float 0.))
        (Printf.sprintf "bucket edge of %h" v)
        (frexp_edge v) (Stats.Hist.quantile h 0.5))
    samples

(* The samples are boxed up front (a float list), so the loop passes
   existing boxes and any allocation measured is [add]'s own. *)
let test_hist_add_allocates_nothing () =
  let h = Stats.Hist.create () in
  let samples = List.init 10_000 (fun i -> float_of_int (i + 1) *. 1e-5) in
  let before = Gc.minor_words () in
  List.iter (Stats.Hist.add h) samples;
  let words = Gc.minor_words () -. before in
  if words > 100. then
    Alcotest.failf "10 000 adds allocated %.0f minor words" words;
  check_float "mean" (10_001. *. 1e-5 /. 2.) (Stats.Hist.mean h);
  check_float "min" 1e-5 (Stats.Hist.min_value h);
  check_float "max" 0.1 (Stats.Hist.max_value h)

let () =
  Alcotest.run "simnet"
    [
      ( "hist",
        [
          Alcotest.test_case "buckets match the frexp rule" `Quick
            test_hist_buckets;
          Alcotest.test_case "add allocates nothing" `Quick
            test_hist_add_allocates_nothing;
        ] );
      ( "heap",
        [
          Alcotest.test_case "order" `Quick test_heap_order;
          Alcotest.test_case "stability" `Quick test_heap_stability;
          Alcotest.test_case "peek/pop" `Quick test_heap_peek_pop;
          Alcotest.test_case "pop_exn empty" `Quick test_heap_pop_exn_empty;
          Alcotest.test_case "large" `Quick test_heap_large;
        ] );
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "split" `Quick test_rng_split_independent;
          Alcotest.test_case "shuffle" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "exponential" `Quick test_rng_exponential_positive;
        ] );
      ( "stats",
        [
          Alcotest.test_case "summary" `Quick test_stats_summary;
          Alcotest.test_case "empty" `Quick test_stats_empty;
          Alcotest.test_case "gini" `Quick test_stats_gini;
          Alcotest.test_case "linear fit" `Quick test_stats_linear_fit;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "table render" `Quick test_stats_table_render;
        ] );
      ( "metric",
        [
          Alcotest.test_case "euclidean" `Quick test_metric_euclidean;
          Alcotest.test_case "torus wrap" `Quick test_metric_torus_wrap;
          Alcotest.test_case "ball" `Quick test_metric_ball;
          Alcotest.test_case "nearest other" `Quick test_metric_nearest_other;
          Alcotest.test_case "random-metric triangle" `Quick test_metric_triangle_random;
          Alcotest.test_case "expansion estimates" `Quick test_expansion_estimates;
        ] );
      ( "topology",
        [
          Alcotest.test_case "all kinds generate" `Quick test_topologies_generate;
          Alcotest.test_case "ring distances" `Quick test_ring_metric;
        ] );
      ( "graph",
        [
          Alcotest.test_case "dijkstra" `Quick test_graph_dijkstra;
          Alcotest.test_case "min edge" `Quick test_graph_min_edge_kept;
          Alcotest.test_case "disconnected" `Quick test_graph_disconnected;
          Alcotest.test_case "metric triangle" `Quick test_graph_metric_triangle;
        ] );
      ( "transit-stub",
        [
          Alcotest.test_case "structure" `Quick test_transit_stub_structure;
          Alcotest.test_case "latency separation" `Quick test_transit_stub_latency_separation;
        ] );
      ("cost", [ Alcotest.test_case "accounting" `Quick test_cost_accounting ]);
      ( "drain",
        [
          Alcotest.test_case "virtual-time ordering" `Quick test_drain_ordering;
          Alcotest.test_case "ties run in push order" `Quick test_drain_ties;
          Alcotest.test_case "same-time push runs last" `Quick
            test_drain_same_time_push;
        ] );
    ]
