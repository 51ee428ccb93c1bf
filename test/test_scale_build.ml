(* The scale tier's streamed builder (Static_build.build_streamed) promises
   two equivalences, and the long 10^5..10^6 runs lean on both:

   - the mesh it produces is bit-identical to Insert.build_incremental with
     the same seed and addresses (same RNG draw order, same staged
     pipeline) — only the bookkeeping differs;
   - its returned statistics are bit-identical whatever [domains] is,
     because the post-build sweep runs over a fixed shard grid with an
     associative integer combine.

   Both are checked here at testable sizes, plus an invariant audit (which
   includes the O(n log n) footprint budget) on a streamed mesh. *)

open Tapestry
module Rng = Simnet.Rng
module Topology = Simnet.Topology

let n_differential = 4096
let seeds = [ 11; 23; 42 ]

(* Exhaustive per-node content signature: address, every slot's entries in
   slot order with exact distances, every level's backpointers (sorted:
   backpointer sets are unordered), pointer count.  Two networks with equal
   signatures are the same mesh. *)
let mesh_signature net =
  Network.alive_nodes net
  |> List.map (fun (n : Node.t) ->
         let t = n.Node.table in
         let b = Buffer.create 1024 in
         Buffer.add_string b (Node_id.to_string n.Node.id);
         Buffer.add_string b (Printf.sprintf "@%d#%d" n.Node.addr
                                (Pointer_store.size n.Node.pointers));
         for level = 0 to Routing_table.levels t - 1 do
           for digit = 0 to Routing_table.base t - 1 do
             List.iter
               (fun (e : Routing_table.entry) ->
                 Buffer.add_string b
                   (Printf.sprintf ";%d.%x:%s/%h" level digit
                      (Node_id.to_string e.Routing_table.id)
                      e.Routing_table.dist))
               (Routing_table.slot t ~level ~digit)
           done;
           Routing_table.backpointers t ~level
           |> List.map Node_id.to_string
           |> List.sort String.compare
           |> List.iter (fun s -> Buffer.add_string b ("^" ^ s))
         done;
         Buffer.contents b)
  |> List.sort String.compare

let build_both ~seed n =
  let rng = Rng.create seed in
  let metric = Topology.generate Topology.Uniform_square ~n ~rng in
  let addrs = List.init n (fun i -> i) in
  let inc_net, reports =
    Insert.build_incremental ~seed:(seed + 1) Config.default metric ~addrs
  in
  let rng2 = Rng.create seed in
  let metric2 = Topology.generate Topology.Uniform_square ~n ~rng:rng2 in
  let str_net, stats =
    Static_build.build_streamed ~seed:(seed + 1) Config.default metric2 ~n
  in
  (inc_net, reports, str_net, stats)

let test_streamed_matches_incremental seed () =
  let inc_net, reports, str_net, stats = build_both ~seed n_differential in
  Alcotest.(check int)
    "same node count" (Network.node_count inc_net)
    (Network.node_count str_net);
  let sig_inc = mesh_signature inc_net and sig_str = mesh_signature str_net in
  (* compare pairwise for a pinpointed failure, then wholesale *)
  List.iter2
    (fun a b -> Alcotest.(check string) "node signature" a b)
    sig_inc sig_str;
  Alcotest.(check (list string)) "identical meshes" sig_inc sig_str;
  (* the streamed accumulators must agree with the report list they
     replaced (float fold order matches build_incremental's insertion
     order, so tolerances stay tiny) *)
  let feps = Alcotest.float 1e-6 in
  (* build_incremental reports the n-1 joins after the bootstrap — exactly
     the joins the streamed accumulators saw *)
  let means extract = Simnet.Stats.mean (List.map extract reports) in
  Alcotest.(check feps)
    "streamed msgs mean = report msgs mean"
    (means (fun (r : Insert.report) ->
         float_of_int r.Insert.cost.Simnet.Cost.messages))
    stats.Static_build.msgs.Static_build.mean;
  Alcotest.(check feps)
    "streamed hops mean = report hops mean"
    (means (fun (r : Insert.report) ->
         float_of_int r.Insert.cost.Simnet.Cost.hops))
    stats.Static_build.hops.Static_build.mean;
  Alcotest.(check feps)
    "streamed multicast mean = report multicast mean"
    (means (fun (r : Insert.report) ->
         float_of_int r.Insert.multicast_reached))
    stats.Static_build.multicast_reached.Static_build.mean;
  Alcotest.(check int)
    "streamed pointer transfers = report sum"
    (List.fold_left
       (fun acc (r : Insert.report) -> acc + r.Insert.pointers_transferred)
       0 reports)
    stats.Static_build.pointers_transferred;
  Alcotest.(check int)
    "stats cover every join" (n_differential - 1)
    (stats.Static_build.n - 1)

let test_domain_invariance () =
  let n = 2048 and seed = 7 in
  let build domains =
    let rng = Rng.create seed in
    let metric = Topology.generate Topology.Uniform_square ~n ~rng in
    Static_build.build_streamed ~seed:(seed + 1) ~domains Config.default
      metric ~n
  in
  let net1, s1 = build 1 in
  let _net3, s3 = build 3 in
  let _net4, s4 = build 4 in
  (* stream_stats is records of floats and ints all the way down, so
     structural equality here means bit-identical statistics *)
  Alcotest.(check bool) "stats: 1 domain = 3 domains" true (s1 = s3);
  Alcotest.(check bool) "stats: 1 domain = 4 domains" true (s1 = s4);
  Alcotest.(check bool)
    "footprint identical across domain counts" true
    (s1.Static_build.footprint = s3.Static_build.footprint);
  (* and the sweep really saw the mesh: entry mean matches a direct count *)
  let total = ref 0 and cnt = ref 0 in
  Network.iter_alive net1 (fun (nd : Node.t) ->
      incr cnt;
      total := !total + Routing_table.entry_count nd.Node.table);
  Alcotest.(check (Alcotest.float 1e-9))
    "sweep entry mean = direct mean"
    (float_of_int !total /. float_of_int !cnt)
    s1.Static_build.entries.Static_build.mean

let test_streamed_audit_clean () =
  let n = n_differential and seed = 42 in
  let rng = Rng.create seed in
  let metric = Topology.generate Topology.Uniform_square ~n ~rng in
  let net, stats =
    Static_build.build_streamed ~seed:(seed + 1) Config.default metric ~n
  in
  let report = Audit.run net in
  Alcotest.(check int) "audits every node" n report.Audit.nodes_audited;
  if not (Audit.is_clean report) then
    Alcotest.failf "streamed mesh audit: %a" Audit.pp_report report;
  (* the audit's footprint gate passed; sanity-check the estimate itself
     is in a plausible O(n log n) band rather than degenerate *)
  let per_node =
    stats.Static_build.footprint.Network.total_bytes / n
  in
  Alcotest.(check bool)
    (Printf.sprintf "bytes/node plausible (%d)" per_node)
    true
    (per_node > 1024 && per_node < 65536)

(* Pinned mesh: an MD5 over every registered node, in handle order, of
   its id and handle, every slot entry (id, handle, IEEE bits of the
   recorded distance) in slot order, and every level's backpointer vector
   (holder id and handle) in vector order.  Unlike [mesh_signature] this
   keeps backpointer order and handles, so an optimization of the join
   path that claims to leave the mesh bit-identical is checked against a
   digest recorded before the change, not argued. *)
let mesh_digest net =
  let b = Buffer.create (1 lsl 20) in
  Network.iter_registered net (fun (n : Node.t) ->
      let t = n.Node.table in
      Printf.bprintf b "N%s#%d" (Node_id.to_string n.Node.id) n.Node.handle;
      for level = 0 to Routing_table.levels t - 1 do
        for digit = 0 to Routing_table.base t - 1 do
          for k = 0 to Routing_table.slot_len t ~level ~digit - 1 do
            Printf.bprintf b ";%d.%x:%s#%d/%Lx" level digit
              (Node_id.to_string (Routing_table.slot_id t ~level ~digit ~k))
              (Routing_table.slot_handle t ~level ~digit ~k)
              (Int64.bits_of_float (Routing_table.slot_dist t ~level ~digit ~k))
          done
        done;
        for k = 0 to Routing_table.backpointer_len t ~level - 1 do
          Printf.bprintf b "^%d:%s#%d" level
            (Node_id.to_string (Routing_table.backpointer_id t ~level ~k))
            (Routing_table.backpointer_handle t ~level ~k)
        done
      done);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Recorded on the commit before the handle-keyed join path.  The grid
   lattice has exact distance ties, where the order of repeated link
   offers decides slot order; uniform points have none.  The uniform mesh
   also pins [Network.memory_footprint]'s [table_bytes] and [total_bytes]:
   with depth-sized routing tables they read 7 328 720 and 10 047 448,
   with every level's slot cells allocated up front 13 356 768 and
   16 075 496.  [total_bytes] fell to 10 031 080 when the surrogate hint
   became an unboxed handle: 1 023 joins no longer charge a 2-word
   [Some].  It fell to 8 947 744 when the alive-ID trie [Network.index],
   which no library code read, was deleted (1 083 336 bytes).  Tables
   store each neighbour by handle alone, reading IDs from the network's
   name column: [table_bytes] fell to 4 671 248 (the per-level ID rows
   and backpointer ID vectors, 2 657 472 bytes) and [total_bytes] to
   6 298 472 (the name column adds 8 200).  [total_bytes] fell to
   6 200 168 when an ID became one immediate word: a node no longer
   carries a 12-word boxed ID (98 304 bytes).  It fell to 5 116 832 when
   the core-ID trie went too (1 083 336 bytes): the oracles sort a
   snapshot of the core IDs when asked. *)
let pinned_mesh_digests =
  [
    ( Topology.Uniform_square,
      "97625d892af28c886014a3114e0b1462",
      Some (4_671_248, 5_116_832) );
    (Topology.Grid, "a241c3eeb1c9b3f6d82e344ef2cef462", None);
  ]

let test_pinned_mesh_digest (kind, pinned, footprint) () =
  let n = 1024 and seed = 42 in
  let rng = Rng.create seed in
  let metric = Topology.generate kind ~n ~rng in
  let net, _ =
    Static_build.build_streamed ~seed:(seed + 1) Config.default metric ~n
  in
  Alcotest.(check string)
    (Printf.sprintf "seed-42 n=1024 %s mesh digest" (Topology.kind_name kind))
    pinned (mesh_digest net);
  match footprint with
  | None -> ()
  | Some (table, total) ->
      let fp = Network.memory_footprint net in
      Alcotest.(check (pair int int))
        "seed-42 n=1024 table_bytes, total_bytes" (table, total)
        (fp.Network.table_bytes, fp.Network.total_bytes)

let () =
  Alcotest.run "scale_build"
    [
      ( "streamed = incremental",
        List.map
          (fun seed ->
            Alcotest.test_case
              (Printf.sprintf "n=%d seed=%d" n_differential seed)
              `Quick
              (test_streamed_matches_incremental seed))
          seeds );
      ( "domains",
        [
          Alcotest.test_case "stats bit-identical for any domain count"
            `Quick test_domain_invariance;
        ] );
      ( "audit",
        [
          Alcotest.test_case "streamed mesh is audit-clean (incl. footprint)"
            `Quick test_streamed_audit_clean;
        ] );
      ( "pinned",
        List.map
          (fun ((kind, _, _) as pin) ->
            Alcotest.test_case
              (Printf.sprintf "n=1024 seed=42 %s mesh digest"
                 (Topology.kind_name kind))
              `Quick (test_pinned_mesh_digest pin))
          pinned_mesh_digests );
    ]
