(* Deterministic replay: the same simultaneous-insertion scenario run twice
   with equal seeds on a Simnet.Heap timeline must produce identical event
   traces and identical final meshes.  This is the
   property that makes the Theorem 6 concurrency tests reproducible at
   all — any ambient randomness or time source would break it, which is
   exactly what the lint pass bans outside lib/simnet/rng.ml. *)

open Tapestry

type event = { at : float; stage : string; addr : int }

let event_testable =
  let pp ppf e = Format.fprintf ppf "%.6f %s addr=%d" e.at e.stage e.addr in
  let equal a b =
    (* exact float equality on purpose: replay must reproduce the schedule
       bit-for-bit, not merely approximately *)
    Float.equal a.at b.at && String.equal a.stage b.stage && Int.equal a.addr b.addr
  in
  Alcotest.testable pp equal

(* One full scenario: build a 64-node mesh, then insert 8 more nodes
   concurrently with randomized stage delays, tracing every stage.
   Everything is derived from [seed]. *)
let run_scenario seed =
  let rng = Simnet.Rng.create seed in
  let metric =
    Simnet.Topology.generate Simnet.Topology.Uniform_square ~n:72 ~rng
  in
  let addrs = List.init 64 (fun i -> i) in
  let net, _ =
    Insert.build_incremental ~seed:(seed + 1) Config.default metric ~addrs
  in
  let events = Simnet.Heap.create ~cmp:Float.compare in
  let trace = ref [] in
  let record at stage addr = trace := { at; stage; addr } :: !trace in
  let delays = Simnet.Rng.create (seed + 2) in
  for i = 0 to 7 do
    let addr = 64 + i in
    let d0 = Simnet.Rng.float delays 1. in
    let d1 = 0.05 +. Simnet.Rng.float delays 0.5 in
    let d2 = 0.05 +. Simnet.Rng.float delays 0.5 in
    Simnet.Heap.push events d0 (fun t ->
        let gw = Network.random_alive net in
        record t "surrogate" addr;
        let staged = Insert.stage_surrogate net ~gateway:gw ~addr in
        Simnet.Heap.push events (t +. d1) (fun t ->
            record t "multicast" addr;
            Insert.stage_multicast net staged;
            Simnet.Heap.push events (t +. d2) (fun t ->
                record t "acquire" addr;
                ignore (Insert.stage_acquire net staged))))
  done;
  Simnet.Heap.drain events;
  (* a content signature of the final mesh: per node, its table size and
     pointer count, sorted by ID *)
  let signature =
    Network.alive_nodes net
    |> List.map (fun (n : Node.t) ->
           ( Node_id.to_string n.Node.id,
             Routing_table.entry_count n.Node.table,
             Pointer_store.size n.Node.pointers ))
    |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)
  in
  (List.rev !trace, signature)

let test_equal_seeds_replay () =
  let trace1, sig1 = run_scenario 2024 in
  let trace2, sig2 = run_scenario 2024 in
  Alcotest.(check int) "all 24 stage events traced" 24 (List.length trace1);
  Alcotest.(check (list event_testable)) "identical event traces" trace1 trace2;
  Alcotest.(check (list (triple string int int)))
    "identical final meshes" sig1 sig2

(* The seed-2024 schedule and final mesh, pinned: the digest covers
   every stage event's exact time (hex float), stage and address, then
   every node's (ID, table entries, pointer records). *)
let scenario_digest (trace, signature) =
  let b = Buffer.create 4096 in
  List.iter
    (fun e -> Buffer.add_string b (Printf.sprintf "%h %s %d\n" e.at e.stage e.addr))
    trace;
  List.iter
    (fun (id, entries, ptrs) ->
      Buffer.add_string b (Printf.sprintf "%s %d %d\n" id entries ptrs))
    signature;
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_schedule_pinned () =
  Alcotest.(check string) "seed-2024 trace and mesh digest"
    "792ebf943e9516c0d483d75c08007578"
    (scenario_digest (run_scenario 2024))

let test_traces_are_time_ordered () =
  (* sanity on the harness itself: the heap delivers events in
     non-decreasing virtual time, so the trace is a real schedule *)
  let trace, _ = run_scenario 7 in
  let rec ordered = function
    | a :: (b :: _ as rest) -> a.at <= b.at && ordered rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "virtual time never goes backwards" true
    (ordered trace)

let () =
  Alcotest.run "determinism"
    [
      ( "replay",
        [
          Alcotest.test_case "equal seeds, identical traces" `Quick
            test_equal_seeds_replay;
          Alcotest.test_case "traces are time-ordered" `Quick
            test_traces_are_time_ordered;
          Alcotest.test_case "seed-2024 schedule pinned" `Quick
            test_schedule_pinned;
        ] );
    ]
