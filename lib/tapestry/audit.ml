(* Full mesh invariant audit, extending Verify with the structural
   invariants the paper's correctness argument rests on.  Runs at quiescent
   points (no in-flight operations); all walking is charge-free. *)

type violation =
  | Uncertified_hole of {
      node : Node_id.t;
      level : int;
      digit : int;
      witness : Node_id.t;
    }
  | Misordered_slot of { node : Node_id.t; level : int; digit : int }
  | Misplaced_entry of {
      node : Node_id.t;
      level : int;
      digit : int;
      entry : Node_id.t;
    }
  | Duplicate_entry of {
      node : Node_id.t;
      level : int;
      digit : int;
      entry : Node_id.t;
    }
  | Dangling_entry of {
      node : Node_id.t;
      level : int;
      digit : int;
      entry : Node_id.t;
    }
  | Stale_handle of {
      node : Node_id.t;
      level : int;
      digit : int;
      entry : Node_id.t;
    }
  | Missing_backpointer of {
      holder : Node_id.t;
      level : int;
      target : Node_id.t;
    }
  | Stale_backpointer of { node : Node_id.t; level : int; source : Node_id.t }
  | Duplicate_backpointer of { node : Node_id.t; level : int; source : Node_id.t }
  | Missing_owner of { node : Node_id.t; level : int }
  | Expired_pointer of {
      node : Node_id.t;
      guid : Node_id.t;
      server : Node_id.t;
      root_idx : int;
      expires : float;
    }
  | Footprint_excess of { total_bytes : int; budget_bytes : int }
  | Cache_incoherent of {
      holder : Node_id.t option;
      guid : Node_id.t;
      reason : string;
    }

type report = {
  nodes_audited : int;
  entries_checked : int;
  holes_certified : int;
  violations : violation list;
}

let violation_code = function
  | Uncertified_hole _ -> "uncertified-hole"
  | Misordered_slot _ -> "misordered-slot"
  | Misplaced_entry _ -> "misplaced-entry"
  | Duplicate_entry _ -> "duplicate-entry"
  | Dangling_entry _ -> "dangling-entry"
  | Stale_handle _ -> "stale-handle"
  | Missing_backpointer _ -> "missing-backpointer"
  | Stale_backpointer _ -> "stale-backpointer"
  | Duplicate_backpointer _ -> "duplicate-backpointer"
  | Missing_owner _ -> "missing-owner"
  | Expired_pointer _ -> "expired-pointer"
  | Footprint_excess _ -> "footprint-excess"
  | Cache_incoherent _ -> "cache-incoherent"

let is_clean r = match r.violations with [] -> true | _ :: _ -> false

let pp_violation ppf v =
  let id = Node_id.to_string in
  match v with
  | Uncertified_hole { node; level; digit; witness } ->
      Format.fprintf ppf
        "uncertified-hole: %s slot (L%d, %x) is empty but core node %s \
         matches the prefix (Property 1)"
        (id node) (level + 1) digit (id witness)
  | Misordered_slot { node; level; digit } ->
      Format.fprintf ppf
        "misordered-slot: %s slot (L%d, %x) entries are not in ascending \
         distance order (Property 2)"
        (id node) (level + 1) digit
  | Misplaced_entry { node; level; digit; entry } ->
      Format.fprintf ppf
        "misplaced-entry: %s slot (L%d, %x) holds %s whose ID does not \
         select that slot"
        (id node) (level + 1) digit (id entry)
  | Duplicate_entry { node; level; digit; entry } ->
      Format.fprintf ppf
        "duplicate-entry: %s slot (L%d, %x) holds %s more than once"
        (id node) (level + 1) digit (id entry)
  | Dangling_entry { node; level; digit; entry } ->
      Format.fprintf ppf
        "dangling-entry: %s slot (L%d, %x) holds %s which is dead or unknown"
        (id node) (level + 1) digit (id entry)
  | Stale_handle { node; level; digit; entry } ->
      Format.fprintf ppf
        "stale-handle: %s slot (L%d, %x) entry %s carries an arena handle \
         that resolves to a different node"
        (id node) (level + 1) digit (id entry)
  | Missing_backpointer { holder; level; target } ->
      Format.fprintf ppf
        "missing-backpointer: %s holds %s at level %d but %s has no \
         level-%d backpointer to it (Section 2.1)"
        (id holder) (id target) (level + 1) (id target) (level + 1)
  | Stale_backpointer { node; level; source } ->
      Format.fprintf ppf
        "stale-backpointer: %s has a level-%d backpointer from %s which no \
         longer holds it (Section 2.1)"
        (id node) (level + 1) (id source)
  | Duplicate_backpointer { node; level; source } ->
      Format.fprintf ppf
        "duplicate-backpointer: %s records holder %s more than once at \
         level %d"
        (id node) (id source) (level + 1)
  | Missing_owner { node; level } ->
      Format.fprintf ppf
        "missing-owner: %s is absent from its own digit slot at level %d"
        (id node) (level + 1)
  | Expired_pointer { node; guid; server; root_idx; expires } ->
      Format.fprintf ppf
        "expired-pointer: %s still stores pointer (%s, %s, root %d) expired \
         at %.2f (soft state, Section 2.2)"
        (id node) (id guid) (id server) root_idx expires
  | Footprint_excess { total_bytes; budget_bytes } ->
      Format.fprintf ppf
        "footprint-excess: estimated resident size %d B exceeds the \
         O(n log n) budget %d B (Table 1 space bound)"
        total_bytes budget_bytes
  | Cache_incoherent { holder; guid; reason } ->
      Format.fprintf ppf
        "cache-incoherent: %s cached entry for object %s is neither valid \
         nor redirectable: %s (DESIGN.md \xc2\xa710)"
        (match holder with Some n -> id n | None -> "<out-of-arena>")
        (id guid) reason

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>audit: %d nodes, %d entries checked, %d holes certified, %d \
     violation(s)@,"
    r.nodes_audited r.entries_checked r.holes_certified
    (List.length r.violations);
  List.iter (fun v -> Format.fprintf ppf "  %a@," pp_violation v) r.violations;
  Format.fprintf ppf "@]"

(* Does the slot, or the level's backpointer vector, name [target]?
   Index loops over the packed accessors, comparing the IDs the list
   views held, so the verdicts are the views' and nothing is allocated
   per entry. *)
let slot_holds table ~level ~digit target =
  let rec go k =
    k < Routing_table.slot_len table ~level ~digit
    && (Node_id.equal (Routing_table.slot_id table ~level ~digit ~k) target
       || go (k + 1))
  in
  go 0

let backpointed table ~level target =
  let rec go k =
    k < Routing_table.backpointer_len table ~level
    && (Node_id.equal (Routing_table.backpointer_id table ~level ~k) target
       || go (k + 1))
  in
  go 0

(* Space sanity: the paper's Table 1 space bound is O(log² n) pointers per
   node, i.e. O(n log n) words beyond the fixed b·R·log_b(N) slot arrays
   every table carries.  The budget charges each node its empty-table cost
   plus a per-node O(log n) allowance for entries and backpointers,
   with 2x slack — generous enough never to trip on a healthy mesh at any
   n, tight enough to catch superlinear-per-node regressions (e.g. a
   backpointer leak). *)
let footprint_budget net =
  let cfg = net.Network.config in
  let n = max 2 (Network.node_count net) in
  let word = 8 in
  let cells = cfg.Config.id_digits * cfg.Config.base in
  let empty_table =
    ((cells * cfg.Config.redundancy * 3) + (2 * cells)
    + (20 * cfg.Config.id_digits) + 80)
    * word
  in
  let per_node_fixed = empty_table + 1024 in
  let log2n = log (float_of_int n) /. log 2. in
  let per_node_log = 512. *. log2n in
  int_of_float
    (float_of_int n *. (float_of_int per_node_fixed +. per_node_log) *. 2.)
  + Simnet.Metric.approx_bytes net.Network.metric

let run net =
  Network.without_charging net (fun () ->
      let cfg = net.Network.config in
      let violations = ref [] in
      let entries_checked = ref 0 in
      let holes_certified = ref 0 in
      let add v = violations := v :: !violations in
      (* Property 1: every hole of a core node is a certified hole — no
         core node extends (prefix, digit).  Mirrors the insertion-time
         obligation of Definition 1 / Theorem 5. *)
      (* One sorted snapshot of the core IDs answers every hole's query
         by binary search; the witness is the largest matching ID. *)
      let core = Verify.core net in
      (* Worklists are handle iterations, not materialized lists: at
         10^5..10^6 nodes the audit passes allocate nothing per node. *)
      Network.iter_alive net (fun (n : Node.t) ->
          if Node.is_core n then
            for level = 0 to cfg.Config.id_digits - 1 do
              for digit = 0 to cfg.Config.base - 1 do
                if Routing_table.is_hole n.Node.table ~level ~digit then
                  match Verify.extension core n.Node.id ~level ~digit with
                  | Some witness ->
                      add
                        (Uncertified_hole
                           { node = n.Node.id; level; digit; witness })
                  | None -> incr holes_certified
              done
            done);
      (* Per-slot structure for every alive node: entries belong to the
         slot, are ordered by distance (Property 2: closest is primary),
         point at live nodes, and are backpointed (Section 2.1). *)
      Network.iter_alive net (fun (n : Node.t) ->
          let table = n.Node.table in
          let owner = n.Node.id in
          for level = 0 to Routing_table.levels table - 1 do
            for digit = 0 to Routing_table.base table - 1 do
              let len = Routing_table.slot_len table ~level ~digit in
              let ordered = ref true in
              for k = 0 to len - 2 do
                if
                  Routing_table.slot_dist table ~level ~digit ~k
                  > Routing_table.slot_dist table ~level ~digit ~k:(k + 1)
                then ordered := false
              done;
              if not !ordered then
                add (Misordered_slot { node = owner; level; digit });
              for k = 0 to len - 1 do
                let eid = Routing_table.slot_id table ~level ~digit ~k in
                let h = Routing_table.slot_handle table ~level ~digit ~k in
                let rec seen j =
                  j < k
                  && (Node_id.equal (Routing_table.slot_id table ~level ~digit ~k:j) eid
                     || seen (j + 1))
                in
                if seen 0 then
                  add (Duplicate_entry { node = owner; level; digit; entry = eid });
                if not (Node_id.equal eid owner) then begin
                  incr entries_checked;
                  if
                    Node_id.common_prefix_len owner eid < level
                    || Node_id.digit eid level <> digit
                  then
                    add
                      (Misplaced_entry
                         { node = owner; level; digit; entry = eid });
                  (* an entry's arena handle is immutable: resolving it must
                     yield the very node the entry names *)
                  if
                    not
                      (h < net.Network.arena_len
                      && Node_id.equal (Network.node_of_handle net h).Node.id eid)
                  then
                    add (Stale_handle { node = owner; level; digit; entry = eid });
                  match Network.find net eid with
                  | Some target when Node.is_alive target ->
                      if not (backpointed target.Node.table ~level owner)
                      then
                        add
                          (Missing_backpointer
                             { holder = owner; level; target = eid })
                  | Some _ | None ->
                      add
                        (Dangling_entry
                           { node = owner; level; digit; entry = eid })
                end
              done
            done;
            (* the owner fills its own digit slot at every level (create's
               invariant; routing and multicast rely on it) *)
            let own_digit = Node_id.digit owner level in
            if not (slot_holds table ~level ~digit:own_digit owner) then
              add (Missing_owner { node = owner; level })
          done);
      (* Backpointer reverse direction: every backpointer's source still
         holds the node and is recorded once per level — joins append
         without a scan, relying on symmetry.  Walked
         top level down, newest holder first ([all_backpointers] order);
         [mark.(h) = gen]: handle [h] already seen at this level. *)
      let mark = Array.make net.Network.arena_len 0 and gen = ref 0 in
      Network.iter_alive net (fun (b : Node.t) ->
          let table = b.Node.table in
          for level = Routing_table.levels table - 1 downto 0 do
            incr gen;
            for k = Routing_table.backpointer_len table ~level - 1 downto 0 do
              let src = Routing_table.backpointer_id table ~level ~k in
              let h = Routing_table.backpointer_handle table ~level ~k in
              let holds =
                match Network.find net src with
                | Some a when Node.is_alive a ->
                    slot_holds a.Node.table ~level
                      ~digit:(Node_id.digit b.Node.id level)
                      b.Node.id
                | Some _ | None -> false
              in
              if not holds then
                add (Stale_backpointer { node = b.Node.id; level; source = src });
              if h >= net.Network.arena_len then ()
              else if mark.(h) = !gen then
                add (Duplicate_backpointer { node = b.Node.id; level; source = src })
              else mark.(h) <- !gen
            done
          done);
      (* Pointer-store expiry consistency: at a quiescent point no node may
         still hold a pointer past its expiry (soft state, Section 2.2). *)
      Network.iter_alive net (fun (n : Node.t) ->
          let c = Pointer_store.cols n.Node.pointers in
          for i = 0 to Pointer_store.size n.Node.pointers - 1 do
            if c.expires.(i) < net.Network.clock then
              add
                (Expired_pointer
                   {
                     node = n.Node.id;
                     guid = c.guid.(i);
                     server =
                       (Network.node_of_handle net (Pointer_store.server c i))
                         .Node.id;
                     root_idx = Pointer_store.root_idx c i;
                     expires = c.expires.(i);
                   })
          done);
      (* Cache coherence (PR 9): every cached entry is valid — a
         registered, live, epoch-current server still holding the
         replica — or provably redirectable: epoch behind (a probe
         self-evicts it) or server dead (the probe's liveness check
         rejects it; arena handles are never reused, so handle+liveness
         identifies the server).  Only the valid-looking ones can steer
         a request, so only they can be incoherent. *)
      (match net.Network.obj_cache with
      | None -> ()
      | Some c ->
          Obj_cache.iter c ~f:(fun ~h ~key ~server ~epoch ->
              let guid = Obj_cache.guid_of_key c key in
              if h >= net.Network.arena_len then
                add
                  (Cache_incoherent
                     {
                       holder = None;
                       guid;
                       reason = "cache line beyond the node arena";
                     })
              else if server < 0 || server >= net.Network.arena_len then
                add
                  (Cache_incoherent
                     {
                       holder = Some (Network.node_of_handle net h).Node.id;
                       guid;
                       reason = "entry names an unregistered server handle";
                     })
              else if epoch = Obj_cache.epoch_of c ~key ~srv:server then begin
                let s = Network.node_of_handle net server in
                if Node.is_alive s && not (Node.stores_replica s guid) then
                  add
                    (Cache_incoherent
                       {
                         holder = Some (Network.node_of_handle net h).Node.id;
                         guid;
                         reason =
                           "epoch-current entry names a live server that \
                            does not hold the replica";
                       })
              end);
          (* Hint-sketch structural invariants (PR 10).  Propagated
             hints already pass the replica-coherence check above via
             [iter] — they are ordinary entries once landed; here we
             certify the sketch itself: an empty way carries no hit
             count and no hint mark, an occupied way's count is at
             least 1 (every fill and import starts it there). *)
          Obj_cache.iter_ways c ~f:(fun ~h ~key ~hits ~hint ~i:_ ->
            let occupied = key >= 0 in
            let holder =
              if h < net.Network.arena_len then
                Some (Network.node_of_handle net h).Node.id
              else None
            in
            if (not occupied) && (hits <> 0 || hint) then
              add
                (Cache_incoherent
                   {
                     holder;
                     guid =
                       (match holder with
                       | Some id -> id
                       | None ->
                           let cfg = net.Network.config in
                           Node_id.of_int ~base:cfg.Config.base
                             ~len:cfg.Config.id_digits 0);
                     reason = "sketch count or hint mark on an empty way";
                   })
            else if occupied && hits < 1 then
              add
                (Cache_incoherent
                   {
                     holder;
                     guid = Obj_cache.guid_of_key c key;
                     reason = "occupied way with a zero sketch count";
                   })));
      (* Space bound: estimated residency within the O(n log n) budget. *)
      let fp = Network.memory_footprint net in
      let budget = footprint_budget net in
      if fp.Network.total_bytes > budget then
        add
          (Footprint_excess
             { total_bytes = fp.Network.total_bytes; budget_bytes = budget });
      {
        nodes_audited = Network.node_count net;
        entries_checked = !entries_checked;
        holes_certified = !holes_certified;
        violations = List.rev !violations;
      })
