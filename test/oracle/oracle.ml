(* Reference oracles: the list-and-hashtable implementations the packed
   engines in lib/tapestry replaced, kept for the differential suites.

   - [Multicast.run]: hashtable visited set, per-edge prefix copies,
     list-built target sets, acks charged in one batch after the walk.
   - [Nearest_neighbor.acquire_neighbor_table]: hashtable candidate set,
     keyed-list sort per trim, [Network.find] per pointer.
   - [Insert.insert]: the Figure 7 pipeline on the two engines above plus
     the directory-based preliminary-table copy.
   - [Routing_table]: list-based slots.
   - [Node_id_ref]: the digit-array identifiers (node_id_ref.ml), the
     reference for the one-word [Node_id] in test_ids.

   Observable behavior — reached sets and order, tree edges, watch hits,
   insertion reports, final tables, total cost — is identical to the
   packed engines; test_insert_packed and test_table_packed drive both
   through identical churn and assert it.

   Each submodule shadows its Tapestry namesake from its definition on:
   [Insert] below runs on the list [Multicast] and [Nearest_neighbor]
   defined above it, and [Routing_table] comes last so the engines above
   it read the packed tables of the mesh they walk. *)

open Tapestry
module Node_id_ref = Node_id_ref

module Multicast = struct
  let run ?on_watch_hit ?watchlist net ~start ~prefix ~len ~apply :
      Multicast.result =
    if not (Node_id.has_prefix (start : Node.t).Node.id ~prefix ~len) then
      invalid_arg "Multicast.run: start node lacks the prefix";
    let cfg = net.Network.config in
    let visited = Node_id.Tbl.create 32 in
    let reached = ref [] in
    let edges = ref 0 in
    let check_watchlist (node : Node.t) =
      match (watchlist, on_watch_hit) with
      | Some wl, Some hit ->
          Array.iteri
            (fun level row ->
              Array.iteri
                (fun digit wanted ->
                  if wanted then begin
                    match
                      Routing_table.primary node.Node.table ~level ~digit
                    with
                    | Some e
                      when not (Node_id.equal e.Routing_table.id node.Node.id)
                      -> (
                        match Network.find net e.Routing_table.id with
                        | Some filler when Node.is_alive filler ->
                            row.(digit) <- false;
                            hit ~level ~digit filler
                        | _ -> ())
                    | Some _ when Node.is_alive node ->
                        row.(digit) <- false;
                        hit ~level ~digit node
                    | _ -> ()
                  end)
                row)
            wl
      | _ -> ()
    in
    let rec descend (node : Node.t) cur_prefix l =
      if not (Node_id.Tbl.mem visited node.Node.id) then begin
        Node_id.Tbl.replace visited node.Node.id ();
        reached := node :: !reached;
        check_watchlist node;
        apply node
      end;
      if l < cfg.Config.id_digits then
        for j = 0 to cfg.Config.base - 1 do
          List.iter
            (fun (next : Node.t) ->
              if Node_id.equal next.Node.id node.Node.id then begin
                let p = Array.copy cur_prefix in
                p.(l) <- j;
                descend node p (l + 1)
              end
              else if not (Node_id.Tbl.mem visited next.Node.id) then begin
                incr edges;
                Network.charge_aside net node next;
                let p = Array.copy cur_prefix in
                p.(l) <- j;
                descend next p (l + 1)
              end)
            (pick_targets node ~level:l ~digit:j)
        done
    and pick_targets (node : Node.t) ~level ~digit =
      let table = node.Node.table in
      let live = ref [] in
      for k = Routing_table.slot_len table ~level ~digit - 1 downto 0 do
        let h = Routing_table.slot_handle table ~level ~digit ~k in
        let n =
          if h >= 0 then Some (Network.node_of_handle net h)
          else Network.find net (Routing_table.slot_id table ~level ~digit ~k)
        in
        match n with
        | Some n when Node.is_alive n -> live := n :: !live
        | _ -> ()
      done;
      let live = !live in
      let pinned = List.filter (fun (n : Node.t) -> not (Node.is_core n)) live in
      match List.find_opt Node.is_core live with
      | Some settled -> settled :: pinned
      | None -> pinned
    in
    let buf = Array.make cfg.Config.id_digits 0 in
    Array.blit prefix 0 buf 0 len;
    descend start buf len;
    (* Acknowledgments retrace every tree edge (Theorem 5's accounting). *)
    for _ = 1 to !edges do
      Simnet.Cost.message net.Network.cost ~dist:0.
    done;
    { reached = List.rev !reached; tree_edges = !edges }
end

module Nearest_neighbor = struct
  let add_to_table_if_closer net ~(contacted : Node.t) ~(new_node : Node.t) =
    Network.offer_link_all_levels net ~owner:contacted ~candidate:new_node > 0

  let get_next_list net ~(new_node : Node.t) ~level list ~k =
    let candidates = Node_id.Tbl.create 64 in
    let note (n : Node.t) =
      if
        Node.is_alive n
        && (not (Node_id.equal n.Node.id new_node.Node.id))
        && Node_id.common_prefix_len n.Node.id new_node.Node.id >= level
      then Node_id.Tbl.replace candidates n.Node.id n
    in
    List.iter
      (fun (n : Node.t) ->
        (* round trip: ask n for its forward and backward pointers *)
        Network.charge_aside net new_node n;
        Network.charge_aside net n new_node;
        ignore (add_to_table_if_closer net ~contacted:n ~new_node);
        note n;
        for digit = 0 to Routing_table.base n.Node.table - 1 do
          Routing_table.slot n.Node.table ~level ~digit
          |> List.iter (fun (e : Routing_table.entry) ->
                 match Network.find net e.Routing_table.id with
                 | Some m -> note m
                 | None -> ())
        done;
        Routing_table.backpointers n.Node.table ~level
        |> List.iter (fun id ->
               match Network.find net id with Some m -> note m | None -> ()))
      list;
    let all = Node_id.Tbl.fold (fun _ n acc -> n :: acc) candidates [] in
    let keyed =
      List.map (fun (n : Node.t) -> (Network.dist net new_node n, n)) all
      |> List.sort (fun (d1, _) (d2, _) -> Float.compare d1 d2)
    in
    let rec take i = function
      | [] -> []
      | (_, n) :: rest -> if i = 0 then [] else n :: take (i - 1) rest
    in
    take k keyed

  (* Lemma 2: fill table levels >= [level] from a level list. *)
  let build_table_from_list net ~(new_node : Node.t) list =
    List.iter
      (fun (m : Node.t) ->
        ignore (Network.offer_link_all_levels net ~owner:new_node ~candidate:m))
      list

  let fill_holes net ~(new_node : Node.t) ~(surrogate : Node.t) ~max_level =
    let cfg = net.Network.config in
    let filled = ref 0 in
    for level = 0 to min max_level (cfg.Config.id_digits - 1) do
      for digit = 0 to cfg.Config.base - 1 do
        if Routing_table.is_hole new_node.Node.table ~level ~digit then begin
          let target_digits = Node_id.digits new_node.Node.id in
          target_digits.(level) <- digit;
          let target = Node_id.make target_digits in
          let info = Route.route_to_root net ~from:surrogate target in
          let root = info.Route.root in
          if
            (not (Node_id.equal root.Node.id new_node.Node.id))
            && Node_id.common_prefix_len root.Node.id target >= level + 1
          then begin
            if Network.offer_link net ~owner:new_node ~level ~candidate:root
            then incr filled;
            ignore (add_to_table_if_closer net ~contacted:root ~new_node)
          end
        end
      done
    done;
    !filled

  (* One complete descent at width [k]; returns the trace pieces and the
     closest node of the final (level 0) list. *)
  let run_descent net ~(new_node : Node.t) ~max_level ~initial_list ~k
      ~contacted ~updated =
    let list =
      initial_list
      |> List.filter (fun (m : Node.t) ->
             Node.is_alive m && not (Node_id.equal m.Node.id new_node.Node.id))
      |> List.map (fun (m : Node.t) -> (Network.dist net new_node m, m))
      |> List.sort (fun (d1, _) (d2, _) -> Float.compare d1 d2)
      |> List.filteri (fun i _ -> i < k)
      |> List.map snd
    in
    build_table_from_list net ~new_node list;
    List.iter
      (fun m ->
        if add_to_table_if_closer net ~contacted:m ~new_node then incr updated)
      list;
    let levels = ref 0 in
    let current = ref list in
    for level = max_level - 1 downto 0 do
      incr levels;
      let next = get_next_list net ~new_node ~level !current ~k in
      contacted := !contacted + List.length !current;
      List.iter
        (fun m ->
          if add_to_table_if_closer net ~contacted:m ~new_node then
            incr updated)
        next;
      build_table_from_list net ~new_node next;
      current := next
    done;
    (!levels, match !current with m :: _ -> Some m | [] -> None)

  let acquire_neighbor_table ?(adaptive = false) net ~(new_node : Node.t)
      ~(surrogate : Node.t) ~initial_list : Nearest_neighbor.trace =
    let n = Network.node_count net in
    let base_k = Config.scaled_k net.Network.config ~n in
    let max_level =
      Node_id.common_prefix_len new_node.Node.id surrogate.Node.id
    in
    let contacted = ref 0 in
    let updated = ref 0 in
    let levels = ref 0 in
    if not adaptive then begin
      let l, _ =
        run_descent net ~new_node ~max_level ~initial_list ~k:base_k ~contacted
          ~updated
      in
      levels := l
    end
    else begin
      let rec stabilize k prev tries =
        let l, head =
          run_descent net ~new_node ~max_level ~initial_list ~k ~contacted
            ~updated
        in
        levels := !levels + l;
        match (prev, head) with
        | Some (a : Node.t), Some b when Node_id.equal a.Node.id b.Node.id -> ()
        | _, head when tries > 0 && 2 * k <= Network.node_count net ->
            stabilize (2 * k) head (tries - 1)
        | _ -> ()
      in
      stabilize (max 4 (base_k / 4)) None 5
    end;
    let holes = fill_holes net ~new_node ~surrogate ~max_level in
    {
      levels_walked = !levels;
      nodes_contacted = !contacted;
      tables_updated = !updated;
      holes_backfilled = holes;
    }
end

module Insert = struct
  (* GetPrelimNeighborTable resolving every surrogate entry through the
     directory. *)
  let copy_preliminary_table net ~(new_node : Node.t) ~(surrogate : Node.t) =
    Network.charge net surrogate new_node;
    ignore
      (Network.offer_link_all_levels net ~owner:new_node ~candidate:surrogate);
    Routing_table.iter_entries surrogate.Node.table
      (fun ~level:_ ~digit:_ e ->
        match Network.find net e.Routing_table.id with
        | Some cand when Node.is_alive cand ->
            ignore
              (Network.offer_link_all_levels net ~owner:new_node
                 ~candidate:cand)
        | _ -> ())

  (* LinkAndXferRoot at every alpha-node the multicast reaches. *)
  let link_and_xfer_root net ~(new_node : Node.t) ~transferred (x : Node.t) =
    if not (Node_id.equal x.Node.id new_node.Node.id) then begin
      ignore (Network.offer_link_all_levels net ~owner:x ~candidate:new_node);
      transferred :=
        !transferred
        + Maintenance.optimize_through net ~node:x ~next_hop:new_node.Node.handle
    end

  (* The three stages of [Tapestry.Insert], each charged under its own
     [Network.measure] exactly as there. *)
  let insert ?id ?(adaptive = false) net ~gateway ~addr : Insert.report =
    let cfg = net.Network.config in
    if not (Node.is_alive gateway) then
      invalid_arg "Insert.stage_surrogate: dead gateway";
    let id = match id with Some id -> id | None -> Network.fresh_id net in
    let new_node = Node.create cfg ~id ~addr in
    Network.register net new_node;
    let acc = Simnet.Cost.make () in
    (* Steps 1-3: surrogate route from the gateway, preliminary table. *)
    let (surrogate, shared), cost =
      Network.measure net (fun () ->
          Network.charge net new_node gateway;
          let info = Route.route_to_root net ~from:gateway id in
          let surrogate = info.Route.root in
          new_node.Node.surrogate_hint <- surrogate.Node.handle;
          copy_preliminary_table net ~new_node ~surrogate;
          (surrogate, Node_id.common_prefix_len id surrogate.Node.id))
    in
    Simnet.Cost.add acc cost;
    (* Step 4: acknowledged multicast with the Figure 11 watch list. *)
    let watchlist =
      Array.init (shared + 1) (fun level ->
          Array.init cfg.Config.base (fun digit ->
              Routing_table.is_hole new_node.Node.table ~level ~digit))
    in
    let on_watch_hit ~level ~digit:_ (filler : Node.t) =
      ignore (Network.offer_link net ~owner:new_node ~level ~candidate:filler)
    in
    let transferred = ref 0 in
    let mcast, cost =
      Network.measure net (fun () ->
          Multicast.run ~on_watch_hit ~watchlist net ~start:surrogate
            ~prefix:(Node_id.digits id) ~len:shared
            ~apply:(link_and_xfer_root net ~new_node ~transferred))
    in
    Simnet.Cost.add acc cost;
    let reached = mcast.Tapestry.Multicast.reached in
    (* Step 5: the nearest-neighbor descent seeded by the alpha list. *)
    let nn_trace, cost =
      Network.measure net (fun () ->
          Nearest_neighbor.acquire_neighbor_table ~adaptive net ~new_node
            ~surrogate ~initial_list:reached)
    in
    Simnet.Cost.add acc cost;
    Network.activate net new_node;
    {
      node = new_node;
      surrogate;
      shared_prefix = shared;
      multicast_reached = List.length reached;
      pointers_transferred = !transferred;
      nn_trace;
      cost = Simnet.Cost.snapshot acc;
    }
end

(* The list-based slots: [slots.(level).(digit)] in ascending distance,
   driven by test_table_packed through the same
   [consider]/[remove]/[update_distances] churn as the packed table. *)
module Routing_table = struct
  type entry = Routing_table.entry = { id : Node_id.t; dist : float }

  type t = {
    owner : Node_id.t;
    redundancy : int;
    slots : entry list array array;
  }

  let create (cfg : Config.t) ~owner =
    let slots = Array.init cfg.id_digits (fun _ -> Array.make cfg.base []) in
    for l = 0 to cfg.id_digits - 1 do
      slots.(l).(Node_id.digit owner l) <- [ { id = owner; dist = 0. } ]
    done;
    { owner; redundancy = cfg.redundancy; slots }

  let slot t ~level ~digit = t.slots.(level).(digit)

  let primary t ~level ~digit =
    match t.slots.(level).(digit) with [] -> None | e :: _ -> Some e

  (* Single pass: drop any previous occurrence of [e.id] while inserting
     [e] at its stable sorted position (after equal distances). *)
  let refresh_insert e l =
    let rec go inserted l =
      match l with
      | [] -> ((if inserted then [] else [ e ]), false)
      | x :: rest ->
          if Node_id.equal x.id e.id then
            let tail, _ = go inserted rest in
            (tail, true)
          else if (not inserted) && e.dist < x.dist then
            let tail, found = go true l in
            (e :: tail, found)
          else
            let tail, found = go inserted rest in
            (x :: tail, found)
    in
    go false l

  let consider t ~level ~candidate ~dist =
    if Node_id.equal candidate t.owner then `Known
    else begin
      let digit = Node_id.digit candidate level in
      let cur = t.slots.(level).(digit) in
      let updated, was_known = refresh_insert { id = candidate; dist } cur in
      if was_known then begin
        t.slots.(level).(digit) <- updated;
        `Known
      end
      else if List.length updated <= t.redundancy then begin
        t.slots.(level).(digit) <- updated;
        `Added None
      end
      else begin
        (* Drop the farthest; if that is the candidate itself, reject. *)
        let rec split_last acc = function
          | [ last ] -> (List.rev acc, last)
          | x :: rest -> split_last (x :: acc) rest
          | [] -> assert false
        in
        let kept, last = split_last [] updated in
        if Node_id.equal last.id candidate then `Rejected
        else begin
          t.slots.(level).(digit) <- kept;
          `Added (Some last.id)
        end
      end
    end

  let update_distances t ~measure =
    let changed = ref 0 in
    Array.iter
      (fun row ->
        Array.iteri
          (fun digit entries ->
            match entries with
            | [] -> ()
            | old_primary :: _ ->
                let remeasured =
                  List.filter_map
                    (fun e ->
                      if Node_id.equal e.id t.owner then Some { e with dist = 0. }
                      else
                        match measure e.id with
                        | Some d -> Some { e with dist = d }
                        | None -> None)
                    entries
                in
                let sorted =
                  List.sort (fun a b -> Float.compare a.dist b.dist) remeasured
                in
                row.(digit) <- sorted;
                (match sorted with
                | p :: _ when not (Node_id.equal p.id old_primary.id) ->
                    incr changed
                | [] -> incr changed
                | _ -> ()))
          row)
      t.slots;
    !changed

  let remove t target =
    if Node_id.equal target t.owner then []
    else begin
      let found = ref [] in
      Array.iteri
        (fun l row ->
          let digit = Node_id.digit target l in
          if digit < Array.length row then begin
            let cur = row.(digit) in
            if List.exists (fun e -> Node_id.equal e.id target) cur then begin
              row.(digit) <-
                List.filter (fun e -> not (Node_id.equal e.id target)) cur;
              found := l :: !found
            end
          end)
        t.slots;
      List.rev !found
    end
end
