(* Pinned repair: the §5 repair and maintenance paths (lazy on_dead
   repair, the hole sweep, voluntary delete, table sharing, level
   rebuild) run in sequence on one seed-42 mesh, and after each phase
   the mesh is digested and compared with a digest recorded before a
   change to those paths.  A refactor that claims to leave repair
   behaviour unchanged is checked against these constants, not argued.

   Slots are digested apart from backpointer vectors: on a metric
   without exact distance ties a slot's final contents do not depend on
   the order candidates are offered in, but the order in which holders
   are appended to a backpointer vector does follow the walk order. *)

open Tapestry
module Rng = Simnet.Rng

(* Every registered node in handle order, with every slot entry (id,
   handle, IEEE bits of the recorded distance) in slot order. *)
let slot_digest net =
  let b = Buffer.create (1 lsl 16) in
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
        done
      done);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Every registered node's backpointer vectors, level by level, in
   vector order. *)
let backpointer_digest net =
  let b = Buffer.create (1 lsl 16) in
  Network.iter_registered net (fun (n : Node.t) ->
      let t = n.Node.table in
      Printf.bprintf b "N#%d" n.Node.handle;
      for level = 0 to Routing_table.levels t - 1 do
        for k = 0 to Routing_table.backpointer_len t ~level - 1 do
          Printf.bprintf b "^%d:%s#%d" level
            (Node_id.to_string (Routing_table.backpointer_id t ~level ~k))
            (Routing_table.backpointer_handle t ~level ~k)
        done
      done);
  Digest.to_hex (Digest.string (Buffer.contents b))

type pin = { phase : string; slots : string; backpointers : string; messages : int }

(* Run the five phases and return the digests observed after each. *)
let run_phases () =
  let n = 256 and seed = 42 in
  let rng = Rng.create seed in
  let metric = Simnet.Topology.generate Simnet.Topology.Uniform_square ~n ~rng in
  let net, _ = Static_build.build_streamed ~seed:(seed + 1) Config.default metric ~n in
  let cfg = net.Network.config in
  let guid () = Node_id.random ~base:cfg.Config.base ~len:cfg.Config.id_digits rng in
  let alive () = Network.alive_nodes net in
  (* objects, so repairs also re-push pointers *)
  for _ = 1 to 40 do
    ignore (Publish.publish net ~server:(Rng.pick_list rng (alive ())) (guid ()))
  done;
  let observed = ref [] in
  let pin phase =
    observed :=
      {
        phase;
        slots = slot_digest net;
        backpointers = backpointer_digest net;
        messages = net.Network.cost.Simnet.Cost.messages;
      }
      :: !observed
  in
  (* 1: 15% die silently; routed walks notice them and repair lazily *)
  for _ = 1 to n * 15 / 100 do
    Delete.fail net (Rng.pick_list rng (alive ()))
  done;
  for _ = 1 to 300 do
    let from = Rng.pick_list rng (alive ()) in
    ignore
      (Route.fold_path ~on_dead:Delete.on_dead_repair net ~from (guid ()) ~init:()
         ~f:(fun () _ -> `Continue ()))
  done;
  pin "on_dead_repair";
  (* 2: the anti-entropy sweep *)
  ignore (Delete.repair_all_holes net);
  pin "repair_all_holes";
  (* 3: two graceful departures *)
  for _ = 1 to 2 do
    ignore (Delete.voluntary net (Rng.pick_list rng (alive ())))
  done;
  pin "voluntary";
  (* 4, 5: the Section 6.4 optimizers *)
  ignore (Optimizer.share_tables net);
  pin "share_tables";
  ignore (Optimizer.rebuild_level net ~level:1);
  pin "rebuild_level";
  List.rev !observed

(* Recorded on the commit before repair and maintenance moved onto arena
   handles.  The share_tables and rebuild_level backpointer digests were
   re-pinned when [Network.live_neighbours] became a plain (digit, rank)
   walk: share_tables offers peers in that order, so backpointers are
   appended in a different order while every slot stays the same. *)
let pinned =
  [
    {
      phase = "on_dead_repair";
      slots = "e373252ad23bfbbc0630ba2ce0e64126";
      backpointers = "a9dd741fbd9c08812aae1374ff2de324";
      messages = 12371;
    };
    {
      phase = "repair_all_holes";
      slots = "3f74c6079a3525e038eb698da3a427d2";
      backpointers = "ef2ee4ddb7392773fc569002e6902b0f";
      messages = 55223;
    };
    {
      phase = "voluntary";
      slots = "831418baa83f4bfda152319f64a9747b";
      backpointers = "18dcfe907d298897d478127298be915b";
      messages = 55355;
    };
    {
      phase = "share_tables";
      slots = "b0cf600f261d7ddba68f2dc2b024674c";
      backpointers = "2550ccb38a3e7113512726512c128605";
      messages = 94624;
    };
    {
      phase = "rebuild_level";
      slots = "b0cf600f261d7ddba68f2dc2b024674c";
      backpointers = "2550ccb38a3e7113512726512c128605";
      messages = 126588;
    };
  ]

let test_pinned () =
  let observed = run_phases () in
  List.iter2
    (fun p o ->
      Alcotest.(check string) (p.phase ^ " slots") p.slots o.slots;
      Alcotest.(check string) (p.phase ^ " backpointers") p.backpointers o.backpointers;
      Alcotest.(check int) (p.phase ^ " messages") p.messages o.messages)
    pinned observed

(* The heartbeat sweep (Section 6.5): after silent kills, one
   [Delete.repair_owner] pass over the alive nodes leaves no alive
   node's table naming a dead node, and a second pass finds nothing. *)
let test_heartbeat_sweep () =
  let n = 100 and seed = 121 in
  let metric =
    Simnet.Topology.generate Simnet.Topology.Uniform_square ~n ~rng:(Rng.create seed)
  in
  let net, _ =
    Insert.build_incremental ~seed:(seed + 1) Config.default metric
      ~addrs:(List.init n Fun.id)
  in
  Network.alive_nodes net
  |> List.filteri (fun i _ -> i mod 8 = 0)
  |> List.iter (Delete.fail net);
  let sweep () =
    let dead = ref 0 in
    Network.iter_alive net (fun owner -> dead := !dead + Delete.repair_owner net owner);
    !dead
  in
  Alcotest.(check bool) "first sweep meets dead links" true (sweep () > 0);
  Network.iter_alive net (fun (node : Node.t) ->
      Routing_table.iter_handles node.Node.table (fun ~level:_ h ->
          if not (Node.is_alive (Network.node_of_handle net h)) then
            Alcotest.fail "stale entry survived the heartbeat sweep"));
  Alcotest.(check int) "second sweep finds none" 0 (sweep ());
  Alcotest.(check int) "Property 1" 0 (List.length (Verify.check_property1 net))

let () =
  Alcotest.run "repair"
    [
      ( "pinned",
        [
          Alcotest.test_case "seed-42 n=256 repair phases" `Quick test_pinned;
        ] );
      ( "repair_owner",
        [ Alcotest.test_case "heartbeat sweep repairs tables" `Quick test_heartbeat_sweep ] );
    ]
