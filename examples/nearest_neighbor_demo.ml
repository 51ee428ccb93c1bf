(* The distributed nearest-neighbor algorithm of Section 3 as a standalone
   service: after joining, every node's level-0 neighbor set answers
   "who is my closest peer?" without any global knowledge — this demo checks
   the answers against brute force and shows the per-join cost that the
   algorithm's O(log^2 n) bound is about.

   Run with: dune exec examples/nearest_neighbor_demo.exe *)

open Tapestry

let () =
  let seed = 31 in
  let n = 300 in
  let rng = Simnet.Rng.create seed in
  let metric = Simnet.Topology.generate Simnet.Topology.Uniform_torus ~n ~rng in
  let addrs = List.init n (fun i -> i) in
  let net, reports = Insert.build_incremental ~seed:(seed + 1) Config.default metric ~addrs in
  Printf.printf "built %d nodes on a torus (expansion constant ~4)\n\n" n;

  (* How expensive was the neighbor-table acquisition per join? *)
  let contacts =
    List.map
      (fun (r : Insert.report) ->
        float_of_int r.Insert.nn_trace.Nearest_neighbor.nodes_contacted)
      reports
  in
  Format.printf "nodes contacted per join: %a@." Simnet.Stats.pp_summary
    (Simnet.Stats.summarize contacts);
  let backfills =
    List.map
      (fun (r : Insert.report) ->
        float_of_int r.Insert.nn_trace.Nearest_neighbor.holes_backfilled)
      reports
  in
  Format.printf "Property-1 backfills per join (should be ~0): %a@.@."
    Simnet.Stats.pp_summary
    (Simnet.Stats.summarize backfills);

  (* Every node answers a nearest-neighbor query from its own table;
     brute force is the referee. *)
  let correct = ref 0 and total = ref 0 and off_by = ref [] in
  List.iter
    (fun (node : Node.t) ->
      incr total;
      match
        ( Nearest_neighbor.nearest_neighbor net ~from:node,
          Verify.true_nearest_neighbor net node )
      with
      | Some got, Some want ->
          if Node_id.equal got.Node.id want.Node.id then incr correct
          else begin
            let ratio = Network.dist net node got /. Network.dist net node want in
            off_by := ratio :: !off_by
          end
      | _ -> ())
    (Network.alive_nodes net);
  Printf.printf "nearest-neighbor answers: %d/%d exact\n" !correct !total;
  match !off_by with
  | [] -> ()
  | _ :: _ ->
      Format.printf "  misses are near-ties; got/true distance ratio: %a@."
        Simnet.Stats.pp_summary
        (Simnet.Stats.summarize !off_by)
