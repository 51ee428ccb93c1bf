(* Concurrency tests on a virtual-time event heap: simultaneous insertions
   (Section 4.4, Theorem 6) including engineered same-hole collisions, and
   availability across interleaved joins (Section 4.3, Figure 10). *)

open Tapestry

let build ?(n = 100) ?(seed = 51) ?(extra = 16) () =
  let rng = Simnet.Rng.create seed in
  let metric = Simnet.Topology.generate Simnet.Topology.Uniform_square ~n:(n + extra) ~rng in
  let addrs = List.init n (fun i -> i) in
  Insert.build_incremental ~seed:(seed + 1) Config.default metric ~addrs

let timeline () = Simnet.Heap.create ~cmp:Float.compare

(* [Insert.push_staged] with a fixed id and the report handed back, which
   the collision and cost cases need. *)
let push_joiner ?id ?(on_report = ignore) events net ~addr ~delays =
  let d0, d1, d2 = delays in
  Simnet.Heap.push events d0 (fun t ->
      let gateway = Network.random_alive net in
      let staged = Insert.stage_surrogate ?id net ~gateway ~addr in
      Simnet.Heap.push events (t +. d1) (fun t ->
          Insert.stage_multicast net staged;
          Simnet.Heap.push events (t +. d2) (fun _ ->
              on_report (Insert.stage_acquire net staged))))

let test_concurrent_batch_keeps_p1 () =
  let net, _ = build () in
  let events = timeline () in
  let rng = Simnet.Rng.create 99 in
  for i = 0 to 9 do
    let delays =
      (Simnet.Rng.float rng 1., Simnet.Rng.float rng 1., Simnet.Rng.float rng 1.)
    in
    Insert.push_staged events net ~addr:(100 + i) ~delays
  done;
  Simnet.Heap.drain events;
  Alcotest.(check int) "all joined" 110 (List.length (Network.alive_nodes net));
  Alcotest.(check int) "P1 after concurrent batch" 0
    (List.length (Verify.check_property1 net))

let test_same_hole_collision () =
  (* Engineer the Theorem 6 case 3 collision: two joiners that fill the very
     same hole of the same prefix, inserted simultaneously. *)
  let net, _ = build ~n:80 ~seed:61 () in
  let cfg = net.Network.config in
  (* find a prefix alpha of length 1 with nodes, and a digit j such that no
     (alpha, j) node exists; both new IDs start alpha . j *)
  let core = Verify.core net in
  let rec find_hole tries =
    if tries = 0 then Alcotest.fail "no engineered hole found"
    else begin
      let anchor = Network.random_alive net in
      let prefix = Node_id.digits anchor.Node.id in
      let missing =
        List.filter
          (fun j ->
            Option.is_none (Verify.extension core anchor.Node.id ~level:1 ~digit:j))
          (List.init cfg.Config.base (fun j -> j))
      in
      match missing with
      | j :: _ -> (prefix, j)
      | [] -> find_hole (tries - 1)
    end
  in
  let prefix, j = find_hole 50 in
  let make_id suffix_seed =
    let rng = Simnet.Rng.create suffix_seed in
    let d = Array.init cfg.Config.id_digits (fun _ -> Simnet.Rng.int rng cfg.Config.base) in
    d.(0) <- prefix.(0);
    d.(1) <- j;
    Node_id.make d
  in
  let id_a = make_id 1001 and id_b = make_id 2002 in
  Alcotest.(check bool) "distinct ids" false (Node_id.equal id_a id_b);
  let events = timeline () in
  (* interleave tightly: A's multicast runs between B's surrogate step and
     B's multicast, and vice versa on a second schedule *)
  push_joiner events net ~addr:80 ~id:id_a ~delays:(0.0, 0.2, 0.5);
  push_joiner events net ~addr:81 ~id:id_b ~delays:(0.1, 0.3, 0.4);
  Simnet.Heap.drain events;
  Alcotest.(check int) "P1 holds after same-hole collision" 0
    (List.length (Verify.check_property1 net));
  (* in particular, A and B must know each other (they share prefix.(0), j) *)
  let a = Network.find_exn net id_a and b = Network.find_exn net id_b in
  let knows (x : Node.t) (y : Node.t) =
    let shared = Node_id.common_prefix_len x.Node.id y.Node.id in
    let rec probe level =
      level < shared + 1
      && (List.exists
            (fun (e : Routing_table.entry) -> Node_id.equal e.Routing_table.id y.Node.id)
            (Routing_table.slot x.Node.table ~level ~digit:(Node_id.digit y.Node.id level))
         || probe (level + 1))
    in
    probe 0
  in
  Alcotest.(check bool) "A knows B" true (knows a b);
  Alcotest.(check bool) "B knows A" true (knows b a)

let test_objects_available_during_churny_joins () =
  let net, _ = build ~n:100 ~seed:71 () in
  let cfg = net.Network.config in
  let guids =
    List.init 15 (fun _ ->
        let server = Network.random_alive net in
        let guid =
          Node_id.random ~base:cfg.Config.base ~len:cfg.Config.id_digits net.Network.rng
        in
        ignore (Publish.publish net ~server guid);
        guid)
  in
  let events = timeline () in
  let failures = ref 0 and probes = ref 0 in
  (* a probe runs every 0.1 s, between the insertion stages *)
  let rec probe t =
    incr probes;
    let client = Network.random_alive net in
    let guid = Simnet.Rng.pick_list net.Network.rng guids in
    if (Locate.locate net ~client guid).Locate.server = None then incr failures;
    if !probes < 40 then Simnet.Heap.push events (t +. 0.1) probe
  in
  Simnet.Heap.push events 0.1 probe;
  let rng = Simnet.Rng.create 72 in
  for i = 0 to 11 do
    let delays =
      ( Simnet.Rng.float rng 3.,
        0.05 +. Simnet.Rng.float rng 0.3,
        0.05 +. Simnet.Rng.float rng 0.3 )
    in
    Insert.push_staged events net ~addr:(100 + i) ~delays
  done;
  Simnet.Heap.drain events;
  Alcotest.(check int) "40 probes ran" 40 !probes;
  Alcotest.(check int) "objects never unavailable during joins" 0 !failures

let test_sequentialized_equals_concurrent_p1 () =
  (* the same batch inserted one at a time ends in a state that satisfies
     the same invariants as the interleaved run *)
  let net_seq, _ = build ~n:60 ~seed:81 () in
  for i = 0 to 7 do
    let gw = Network.random_alive net_seq in
    ignore (Insert.insert net_seq ~gateway:gw ~addr:(60 + i))
  done;
  let net_con, _ = build ~n:60 ~seed:81 () in
  let events = timeline () in
  let rng = Simnet.Rng.create 82 in
  for i = 0 to 7 do
    let delays =
      (Simnet.Rng.float rng 1., Simnet.Rng.float rng 1., Simnet.Rng.float rng 1.)
    in
    Insert.push_staged events net_con ~addr:(60 + i) ~delays
  done;
  Simnet.Heap.drain events;
  Alcotest.(check int) "seq P1" 0 (List.length (Verify.check_property1 net_seq));
  Alcotest.(check int) "con P1" 0 (List.length (Verify.check_property1 net_con));
  Alcotest.(check int) "same population" (Network.node_count net_seq)
    (Network.node_count net_con)

let test_interleaved_cost_attribution () =
  (* Each stage of a staged insertion accumulates only its own charges
     (Insert runs every stage under Network.measure), so two inserts whose
     stages interleave on the event heap must report costs that partition the
     network's total exactly — in particular, the multicast acknowledgments
     charged as each tree edge unwinds land in the insertion that sent them,
     not in whichever insertion happened to snapshot last.  Messages and
     hops are pinned: they are deterministic at this seed, and under the old
     begin/end snapshot accounting the first report absorbed the second
     insertion's interleaved charges and these numbers shifted. *)
  let net, _ = build ~n:60 ~seed:81 () in
  let events = timeline () in
  let reports = ref [] in
  let on_report r = reports := r :: !reports in
  let before = Simnet.Cost.snapshot net.Network.cost in
  push_joiner events net ~addr:60 ~on_report ~delays:(0.0, 0.2, 0.5);
  push_joiner events net ~addr:61 ~on_report ~delays:(0.1, 0.3, 0.4);
  Simnet.Heap.drain events;
  let total = Simnet.Cost.diff (Simnet.Cost.snapshot net.Network.cost) before in
  match List.rev !reports with
  | [ r1; r2 ] ->
      let c1 = r1.Insert.cost and c2 = r2.Insert.cost in
      Alcotest.(check int)
        "reports partition total messages" total.Simnet.Cost.messages
        (c1.Simnet.Cost.messages + c2.Simnet.Cost.messages);
      Alcotest.(check int)
        "reports partition total hops" total.Simnet.Cost.hops
        (c1.Simnet.Cost.hops + c2.Simnet.Cost.hops);
      let lat_sum = c1.Simnet.Cost.latency +. c2.Simnet.Cost.latency in
      Alcotest.(check bool)
        "reports partition total latency" true
        (Float.abs (lat_sum -. total.Simnet.Cost.latency)
        <= 1e-9 *. Float.max 1. total.Simnet.Cost.latency);
      Alcotest.(check (pair int int))
        "first insertion cost pinned" (52, 30)
        (c1.Simnet.Cost.messages, c1.Simnet.Cost.hops);
      Alcotest.(check (pair int int))
        "second insertion cost pinned" (25, 13)
        (c2.Simnet.Cost.messages, c2.Simnet.Cost.hops)
  | rs -> Alcotest.failf "expected 2 reports, got %d" (List.length rs)

let () =
  Alcotest.run "concurrent"
    [
      ( "simultaneous insertion",
        [
          Alcotest.test_case "batch keeps Property 1" `Quick test_concurrent_batch_keeps_p1;
          Alcotest.test_case "same-hole collision (Thm 6 case 3)" `Quick test_same_hole_collision;
          Alcotest.test_case "seq vs concurrent invariants" `Quick
            test_sequentialized_equals_concurrent_p1;
          Alcotest.test_case "interleaved cost attribution" `Quick
            test_interleaved_cost_attribution;
        ] );
      ( "availability",
        [
          Alcotest.test_case "objects available during joins" `Quick
            test_objects_available_during_churny_joins;
        ] );
    ]
