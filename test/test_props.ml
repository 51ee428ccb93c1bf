(* Property-based tests (qcheck): data-structure invariants and the paper's
   network invariants under random operation sequences. *)

open Tapestry

let count = 50

(* --- Node_id --- *)

let id_gen =
  QCheck.Gen.(
    map
      (fun digits -> Node_id.make (Array.of_list digits))
      (list_size (return 8) (int_bound 15)))

let arb_id = QCheck.make ~print:Node_id.to_string id_gen

let prop_id_roundtrip =
  QCheck.Test.make ~count ~name:"node_id to_string/of_string roundtrip" arb_id
    (fun id -> Node_id.equal id (Node_id.of_string ~base:16 (Node_id.to_string id)))

let prop_cpl_symmetric =
  QCheck.Test.make ~count ~name:"common_prefix_len symmetric"
    (QCheck.pair arb_id arb_id) (fun (a, b) ->
      Node_id.common_prefix_len a b = Node_id.common_prefix_len b a)

let prop_cpl_reflexive =
  QCheck.Test.make ~count ~name:"common_prefix_len reflexive = length" arb_id
    (fun a -> Node_id.common_prefix_len a a = Node_id.length a)

let prop_cpl_prefix_consistent =
  QCheck.Test.make ~count ~name:"has_prefix agrees with common_prefix_len"
    (QCheck.pair arb_id arb_id) (fun (a, b) ->
      let l = Node_id.common_prefix_len a b in
      let prefix = Node_id.digits b in
      Node_id.has_prefix a ~prefix ~len:l
      && (l = Node_id.length a || not (Node_id.has_prefix a ~prefix ~len:(l + 1))))

let prop_salt_deterministic =
  QCheck.Test.make ~count ~name:"salt is a function"
    (QCheck.pair arb_id QCheck.small_nat) (fun (id, i) ->
      Node_id.equal (Node_id.salt ~base:16 id i) (Node_id.salt ~base:16 id i))

(* --- Heap --- *)

let prop_heap_sorts =
  QCheck.Test.make ~count ~name:"heap drains in sorted order"
    QCheck.(list int) (fun xs ->
      let h = Simnet.Heap.create ~cmp:Int.compare in
      List.iter (fun x -> Simnet.Heap.push h x x) xs;
      List.map fst (Simnet.Heap.to_sorted_list h) = List.sort Int.compare xs)

(* --- Stats --- *)

let prop_gini_bounded =
  QCheck.Test.make ~count ~name:"gini in [0,1]"
    QCheck.(list_of_size (QCheck.Gen.int_range 1 40) (QCheck.float_bound_inclusive 100.))
    (fun xs ->
      let g = Simnet.Stats.gini xs in
      g >= -1e-9 && g <= 1. +. 1e-9)

let prop_percentile_monotone =
  QCheck.Test.make ~count ~name:"percentiles monotone"
    QCheck.(list_of_size (QCheck.Gen.int_range 1 50) (QCheck.float_bound_inclusive 100.))
    (fun xs ->
      Simnet.Stats.percentile xs 0.25 <= Simnet.Stats.percentile xs 0.75)

(* --- Id_index vs reference model --- *)

let prop_index_models_set =
  QCheck.Test.make ~count ~name:"id_index add/remove models a set"
    QCheck.(list (pair QCheck.bool arb_id))
    (fun ops ->
      let t = Id_index.create ~base:16 in
      let model = ref Node_id.Set.empty in
      List.iter
        (fun (add, id) ->
          if add then begin
            if not (Node_id.Set.mem id !model) then begin
              Id_index.add t id;
              model := Node_id.Set.add id !model
            end
          end
          else begin
            Id_index.remove t id;
            model := Node_id.Set.remove id !model
          end)
        ops;
      Id_index.size t = Node_id.Set.cardinal !model
      && Node_id.Set.for_all (Id_index.mem t) !model)

let prop_index_digits_after =
  QCheck.Test.make ~count ~name:"digits_after matches brute force"
    QCheck.(pair (list arb_id) arb_id)
    (fun (ids, probe) ->
      let ids = List.sort_uniq Node_id.compare ids in
      let t = Id_index.create ~base:16 in
      List.iter (Id_index.add t) ids;
      let prefix = Node_id.digits probe in
      List.for_all
        (fun len ->
          let got = Id_index.digits_after t ~prefix ~len in
          let want =
            List.filter_map
              (fun id ->
                if Node_id.has_prefix id ~prefix ~len then Some (Node_id.digit id len)
                else None)
              ids
            |> List.sort_uniq Int.compare
          in
          got = want)
        [ 0; 1; 2 ])

(* --- Routing table keeps the R closest --- *)

let prop_table_keeps_r_closest =
  let gen =
    QCheck.Gen.(list_size (int_range 1 25) (pair id_gen (float_bound_exclusive 100.)))
  in
  QCheck.Test.make ~count
    ~name:"routing slot retains exactly the R closest candidates"
    (QCheck.make gen)
    (fun candidates ->
      let cfg = { Config.default with Config.id_digits = 4; redundancy = 3 } in
      let owner = Node_id.make [| 0; 0; 0; 0 |] in
      let t = Routing_table.create cfg ~owner in
      (* force every candidate into level 0, digit = its first digit *)
      let seen = Hashtbl.create 16 in
      List.iter
        (fun (id, dist) ->
          let id = Node_id.make (Array.sub (Node_id.digits id) 0 4) in
          if (not (Node_id.equal id owner)) && not (Hashtbl.mem seen (Node_id.to_string id))
          then begin
            Hashtbl.replace seen (Node_id.to_string id) dist;
            (* distinct IDs, so the arrival index is a fixed per-ID handle *)
            let handle = Hashtbl.length seen in
            ignore (Routing_table.consider t ~level:0 ~candidate:id ~handle ~dist)
          end)
        candidates;
      (* per digit, slot = the 3 closest distinct candidates *)
      List.init 16 (fun digit -> digit)
      |> List.for_all (fun digit ->
             let expected =
               Hashtbl.fold
                 (fun ids d acc ->
                   let id = Node_id.of_string ~base:16 ids in
                   if Node_id.digit id 0 = digit then (d, ids) :: acc else acc)
                 seen []
               |> List.sort (fun (d1, i1) (d2, i2) ->
                      match Float.compare d1 d2 with
                      | 0 -> String.compare i1 i2
                      | c -> c)
               |> List.filteri (fun i _ -> i < 3)
               |> List.map snd |> List.sort String.compare
             in
             let expected =
               if digit = 0 then
                 (* owner's own slot also carries the owner itself *)
                 List.sort String.compare (Node_id.to_string owner :: expected)
                 |> List.filteri (fun i _ -> i < 999)
               else expected
             in
             let got =
               Routing_table.slot t ~level:0 ~digit
               |> List.map (fun (e : Routing_table.entry) -> Node_id.to_string e.Routing_table.id)
               |> List.sort String.compare
             in
             (* owner slot may hold self + up to R others; compare as sets on
                the non-owner slots only *)
             if digit = Node_id.digit owner 0 then true else got = expected))

(* --- Offer order does not decide a slot --- *)

(* With distinct distances, a slot fed any sequence of offers (repeats
   included) ends with the R closest offered candidates in ascending
   order, and each of them records the owner as a holder exactly once.
   Repair's offers rest on this: while recorded distances are current,
   the order a level's neighbours are walked in does not decide a slot. *)
let prop_offer_order_free =
  let gen =
    QCheck.Gen.(
      triple (int_range 1 10_000) (int_range 2 8)
        (list_size (int_range 1 30) (int_bound 63)))
  in
  QCheck.Test.make ~count ~name:"slot and backpointers independent of offer order"
    (QCheck.make gen)
    (fun (seed, k, offers) ->
      let cfg = { Config.default with Config.id_digits = 4; redundancy = 3 } in
      let metric =
        Simnet.Topology.generate Simnet.Topology.Uniform_square ~n:(k + 1)
          ~rng:(Simnet.Rng.create seed)
      in
      let net = Network.create cfg metric in
      let node addr digits =
        let n = Node.create cfg ~id:(Node_id.make digits) ~addr in
        Network.register net n;
        n
      in
      let owner = node 0 [| 0; 0; 0; 0 |] in
      (* all in the owner's slot (level 0, digit 1) *)
      let cands = Array.init k (fun i -> node (i + 1) [| 1; i; 0; 0 |]) in
      let offered = List.sort_uniq Int.compare (List.map (fun i -> i mod k) offers) in
      List.iter
        (fun i ->
          ignore (Network.offer_link net ~owner ~level:0 ~candidate:cands.(i mod k)))
        offers;
      let dist i = Network.dist net owner cands.(i) in
      let expected =
        List.sort (fun a b -> Float.compare (dist a) (dist b)) offered
        |> List.filteri (fun j _ -> j < 3)
        |> List.map (fun i -> cands.(i).Node.handle)
      in
      let t = owner.Node.table in
      let got =
        List.init (Routing_table.slot_len t ~level:0 ~digit:1) (fun k ->
            Routing_table.slot_handle t ~level:0 ~digit:1 ~k)
      in
      let holds (c : Node.t) =
        let n = ref 0 in
        for j = 0 to Routing_table.backpointer_len c.Node.table ~level:0 - 1 do
          if Routing_table.backpointer_handle c.Node.table ~level:0 ~k:j = owner.Node.handle
          then incr n
        done;
        !n
      in
      List.equal Int.equal expected got
      && Array.for_all
           (fun (c : Node.t) ->
             holds c = if List.exists (Int.equal c.Node.handle) expected then 1 else 0)
           cands)

(* --- network-level properties --- *)

let net_seed_gen = QCheck.Gen.int_range 1 10_000

let prop_incremental_p1 =
  QCheck.Test.make ~count:12 ~name:"random joins keep Property 1"
    (QCheck.make QCheck.Gen.(pair net_seed_gen (int_range 8 40)))
    (fun (seed, n) ->
      let rng = Simnet.Rng.create seed in
      let metric = Simnet.Topology.generate Simnet.Topology.Uniform_square ~n ~rng in
      let addrs = List.init n (fun i -> i) in
      let net, _ = Insert.build_incremental ~seed:(seed + 1) Config.default metric ~addrs in
      match Network.check_property1 net with [] -> true | _ :: _ -> false)

let prop_unique_roots_random_nets =
  QCheck.Test.make ~count:12 ~name:"random networks give unique roots"
    (QCheck.make QCheck.Gen.(pair net_seed_gen (int_range 8 40)))
    (fun (seed, n) ->
      let rng = Simnet.Rng.create seed in
      let metric = Simnet.Topology.generate Simnet.Topology.Uniform_square ~n ~rng in
      let addrs = List.init n (fun i -> i) in
      let net, _ = Insert.build_incremental ~seed:(seed + 1) Config.default metric ~addrs in
      let cfg = net.Network.config in
      List.for_all
        (fun _ ->
          let guid =
            Node_id.random ~base:cfg.Config.base ~len:cfg.Config.id_digits net.Network.rng
          in
          Verify.roots_agree net guid ~samples:6)
        [ 1; 2; 3 ])

let prop_join_leave_p1 =
  QCheck.Test.make ~count:10 ~name:"random join/leave sequences keep Property 1"
    (QCheck.make QCheck.Gen.(pair net_seed_gen (list_size (int_range 5 20) bool)))
    (fun (seed, ops) ->
      let n = 20 in
      let spare = 30 in
      let rng = Simnet.Rng.create seed in
      let metric =
        Simnet.Topology.generate Simnet.Topology.Uniform_square ~n:(n + spare) ~rng
      in
      let addrs = List.init n (fun i -> i) in
      let net, _ = Insert.build_incremental ~seed:(seed + 1) Config.default metric ~addrs in
      let next = ref n in
      List.iter
        (fun join ->
          if join && !next < n + spare then begin
            let gw = Network.random_alive net in
            ignore (Insert.insert net ~gateway:gw ~addr:!next);
            incr next
          end
          else if List.length (Network.alive_nodes net) > 3 then begin
            let v = Network.random_alive net in
            if v.Node.status = Node.Active then ignore (Delete.voluntary net v)
          end)
        ops;
      match Network.check_property1 net with [] -> true | _ :: _ -> false)

let prop_publish_locate_total =
  QCheck.Test.make ~count:10 ~name:"published objects are always locatable"
    (QCheck.make QCheck.Gen.(pair net_seed_gen (int_range 10 35)))
    (fun (seed, n) ->
      let rng = Simnet.Rng.create seed in
      let metric = Simnet.Topology.generate Simnet.Topology.Uniform_square ~n ~rng in
      let addrs = List.init n (fun i -> i) in
      let net, _ = Insert.build_incremental ~seed:(seed + 1) Config.default metric ~addrs in
      let cfg = net.Network.config in
      List.for_all
        (fun _ ->
          let server = Network.random_alive net in
          let guid =
            Node_id.random ~base:cfg.Config.base ~len:cfg.Config.id_digits net.Network.rng
          in
          ignore (Publish.publish net ~server guid);
          Verify.reachable_everywhere net guid)
        [ 1; 2; 3 ])

(* --- baseline invariants over random instances --- *)

let prop_pastry_converges =
  QCheck.Test.make ~count:8 ~name:"pastry routes converge on random networks"
    (QCheck.make QCheck.Gen.(pair net_seed_gen (int_range 10 60)))
    (fun (seed, n) ->
      let rng = Simnet.Rng.create seed in
      let metric = Simnet.Topology.generate Simnet.Topology.Uniform_square ~n ~rng in
      let pa = Baselines.Pastry.create ~seed:(seed + 1) Config.default metric in
      ignore (Baselines.Pastry.bootstrap pa ~addr:0);
      for addr = 1 to n - 1 do
        ignore (Baselines.Pastry.join pa ~gateway:(Baselines.Pastry.random_node pa) ~addr)
      done;
      Baselines.Pastry.check_routes_converge pa ~samples:10)

let prop_can_partitions =
  QCheck.Test.make ~count:8 ~name:"CAN zones tile the space on random joins"
    (QCheck.make QCheck.Gen.(triple net_seed_gen (int_range 5 60) (int_range 2 4)))
    (fun (seed, n, dims) ->
      let rng = Simnet.Rng.create seed in
      let metric = Simnet.Topology.generate Simnet.Topology.Uniform_square ~n ~rng in
      let ca = Baselines.Can.create ~seed:(seed + 1) ~dims metric in
      ignore (Baselines.Can.bootstrap ca ~addr:0);
      for addr = 1 to n - 1 do
        ignore (Baselines.Can.join ca ~gateway:(Baselines.Can.random_node ca) ~addr)
      done;
      Baselines.Can.check_zones_partition ca ~samples:300)

let prop_tz_oracle_bound =
  QCheck.Test.make ~count:8 ~name:"Thorup-Zwick oracle within 2k-1 on random metrics"
    (QCheck.make QCheck.Gen.(pair net_seed_gen (int_range 10 60)))
    (fun (seed, n) ->
      let rng = Simnet.Rng.create seed in
      let metric = Simnet.Topology.generate Simnet.Topology.Random_metric ~n ~rng in
      let tz = Baselines.Thorup_zwick.build ~seed:(seed + 1) metric in
      let bound = float_of_int ((2 * Baselines.Thorup_zwick.k tz) - 1) in
      let ok = ref true in
      for _ = 1 to 100 do
        let u = Simnet.Rng.int rng n and v = Simnet.Rng.int rng n in
        let est = Baselines.Thorup_zwick.approx_distance tz u v in
        let true_d = Simnet.Metric.dist metric u v in
        if est < true_d -. 1e-9 then ok := false;
        if u <> v && est > (bound *. true_d) +. 1e-9 then ok := false
      done;
      !ok)

let () =
  let to_alcotest = QCheck_alcotest.to_alcotest in
  Alcotest.run "properties"
    [
      ( "identifiers",
        List.map to_alcotest
          [
            prop_id_roundtrip; prop_cpl_symmetric; prop_cpl_reflexive;
            prop_cpl_prefix_consistent; prop_salt_deterministic;
          ] );
      ( "data structures",
        List.map to_alcotest
          [
            prop_heap_sorts; prop_gini_bounded; prop_percentile_monotone;
            prop_index_models_set; prop_index_digits_after; prop_table_keeps_r_closest;
            prop_offer_order_free;
          ] );
      ( "network invariants",
        List.map to_alcotest
          [
            prop_incremental_p1; prop_unique_roots_random_nets; prop_join_leave_p1;
            prop_publish_locate_total;
          ] );
      ( "baseline invariants",
        List.map to_alcotest
          [ prop_pastry_converges; prop_can_partitions; prop_tz_oracle_bound ] );
    ]
