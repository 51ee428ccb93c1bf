(* Audit and Verify coverage: a healthy mesh audits clean, and each
   injected corruption (dropped backpointer, reordered slot, faked hole,
   expired pointer, evicted owner) is reported as exactly that violation.
   Plus a regression that check_property4 finds a deliberately deleted
   pointer. *)

open Tapestry

let build ?(n = 64) ?(seed = 7) () =
  let rng = Simnet.Rng.create seed in
  let metric = Simnet.Topology.generate Simnet.Topology.Uniform_square ~n ~rng in
  let addrs = List.init n (fun i -> i) in
  Insert.build_incremental ~seed:(seed + 1) Config.default metric ~addrs

let codes report = List.map Audit.violation_code report.Audit.violations

(* A slot's entries paired with their registered nodes' arena handles, the
   form [inject_slot_for_test] writes back. *)
let with_handles net entries =
  List.map
    (fun (e : Routing_table.entry) ->
      (e, (Network.find_exn net e.Routing_table.id).Node.handle))
    entries

let fast_path_codes =
  [ "duplicate-backpointer"; "duplicate-entry"; "handle-less-entry" ]

let check_no_fast_path_violation name report =
  Alcotest.(check (list string))
    (name ^ ": no duplicate or handle-less entries") []
    (List.filter
       (fun c -> List.exists (String.equal c) fast_path_codes)
       (codes report))

let check_clean name report =
  Alcotest.(check (list string)) (name ^ " audits clean") [] (codes report)

(* Find a slot of some core node with at least [min_entries] non-owner
   entries, away from the owner's own digit column.  Core nodes only: hole
   certification (Property 1) is defined over the core membership. *)
let find_victim_slot net ~min_entries =
  let found = ref None in
  List.iter
    (fun (n : Node.t) ->
      if Option.is_none !found then
        Routing_table.iter_entries n.Node.table (fun ~level ~digit _ ->
            if
              Option.is_none !found
              && digit <> Node_id.digit n.Node.id level
              && List.length (Routing_table.slot n.Node.table ~level ~digit)
                 >= min_entries
            then found := Some (n, level, digit)))
    (Network.core_nodes net);
  match !found with
  | Some v -> v
  | None -> Alcotest.fail "no suitable slot found for corruption"

let test_fresh_network_clean () =
  let net, _ = build ~n:256 ~seed:11 () in
  let report = Audit.run net in
  Alcotest.(check int) "all nodes audited" 256 report.Audit.nodes_audited;
  Alcotest.(check bool) "entries were checked" true
    (report.Audit.entries_checked > 0);
  Alcotest.(check bool) "holes were certified" true
    (report.Audit.holes_certified > 0);
  check_no_fast_path_violation "fresh 256-node network" report;
  check_clean "fresh 256-node network" report

let test_clean_after_publishes () =
  let net, _ = build () in
  let cfg = net.Network.config in
  for _ = 1 to 10 do
    let server = Network.random_alive net in
    let guid =
      Node_id.random ~base:cfg.Config.base ~len:cfg.Config.id_digits
        net.Network.rng
    in
    ignore (Publish.publish net ~server guid)
  done;
  check_clean "network with published objects" (Audit.run net)

let test_dropped_backpointer_detected () =
  let net, _ = build () in
  let holder, level, digit = find_victim_slot net ~min_entries:1 in
  let entry =
    List.hd (Routing_table.slot holder.Node.table ~level ~digit)
  in
  let target = Network.find_exn net entry.Routing_table.id in
  Routing_table.remove_backpointer target.Node.table ~level holder.Node.id;
  let report = Audit.run net in
  Alcotest.(check (list string)) "exactly one violation"
    [ "missing-backpointer" ] (codes report);
  (match report.Audit.violations with
  | [ Audit.Missing_backpointer { holder = h; level = l; target = t } ] ->
      Alcotest.(check bool) "holder" true (Node_id.equal h holder.Node.id);
      Alcotest.(check int) "level" level l;
      Alcotest.(check bool) "target" true (Node_id.equal t target.Node.id)
  | _ -> Alcotest.fail "unexpected violation payload");
  (* repairing the backpointer makes the audit clean again *)
  Routing_table.add_backpointer target.Node.table ~level
    ~handle:holder.Node.handle holder.Node.id;
  check_clean "after repair" (Audit.run net)

let test_reordered_slot_detected () =
  let net, _ = build () in
  (* need two entries with distinct distances so reversal breaks order *)
  let node, level, digit = find_victim_slot net ~min_entries:2 in
  let entries = Routing_table.slot node.Node.table ~level ~digit in
  let first = List.hd entries and last = List.nth entries (List.length entries - 1) in
  if Float.equal first.Routing_table.dist last.Routing_table.dist then
    Alcotest.fail "victim slot has tied distances; pick another seed";
  Routing_table.inject_slot_for_test node.Node.table ~level ~digit
    (with_handles net (List.rev entries));
  let report = Audit.run net in
  Alcotest.(check (list string)) "exactly one violation" [ "misordered-slot" ]
    (codes report);
  match report.Audit.violations with
  | [ Audit.Misordered_slot { node = n; level = l; digit = d } ] ->
      Alcotest.(check bool) "node" true (Node_id.equal n node.Node.id);
      Alcotest.(check int) "level" level l;
      Alcotest.(check int) "digit" digit d
  | _ -> Alcotest.fail "unexpected violation payload"

let test_fake_hole_detected () =
  let net, _ = build () in
  let node, level, digit = find_victim_slot net ~min_entries:1 in
  let entries = Routing_table.slot node.Node.table ~level ~digit in
  (* detach cleanly (so no stale backpointers remain), then fake the hole *)
  List.iter
    (fun (e : Routing_table.entry) ->
      match Network.find net e.Routing_table.id with
      | Some t ->
          Routing_table.remove_backpointer t.Node.table ~level node.Node.id
      | None -> ())
    entries;
  Routing_table.inject_slot_for_test node.Node.table ~level ~digit [];
  let report = Audit.run net in
  Alcotest.(check (list string)) "exactly one violation"
    [ "uncertified-hole" ] (codes report);
  match report.Audit.violations with
  | [ Audit.Uncertified_hole { node = n; level = l; digit = d; witness } ] ->
      Alcotest.(check bool) "node" true (Node_id.equal n node.Node.id);
      Alcotest.(check int) "level" level l;
      Alcotest.(check int) "digit" digit d;
      (* the witness really does extend (prefix, digit): the hole is a lie *)
      Alcotest.(check int) "witness digit" digit (Node_id.digit witness l);
      Alcotest.(check bool) "witness shares prefix" true
        (Node_id.common_prefix_len witness node.Node.id >= l)
  | _ -> Alcotest.fail "unexpected violation payload"

let test_missing_owner_detected () =
  let net, _ = build () in
  (* a slot in the owner's own digit column that also holds another node,
     so dropping the owner leaves no hole behind *)
  let found = ref None in
  List.iter
    (fun (n : Node.t) ->
      let table = n.Node.table in
      for level = 0 to Routing_table.levels table - 1 do
        let digit = Node_id.digit n.Node.id level in
        let entries = Routing_table.slot table ~level ~digit in
        if Option.is_none !found && List.length entries >= 2 then
          found := Some (n, level, digit, entries)
      done)
    (Network.core_nodes net);
  match !found with
  | None -> Alcotest.fail "no shared owner slot found; pick another seed"
  | Some (node, level, digit, entries) ->
      Routing_table.inject_slot_for_test node.Node.table ~level ~digit
        (with_handles net
           (List.filter
              (fun (e : Routing_table.entry) ->
                not (Node_id.equal e.Routing_table.id node.Node.id))
              entries));
      let report = Audit.run net in
      Alcotest.(check (list string)) "exactly one violation"
        [ "missing-owner" ] (codes report);
      (match report.Audit.violations with
      | [ Audit.Missing_owner { node = n; level = l } ] ->
          Alcotest.(check bool) "node" true (Node_id.equal n node.Node.id);
          Alcotest.(check int) "level" level l
      | _ -> Alcotest.fail "unexpected violation payload")

let test_duplicate_backpointer_detected () =
  let net, _ = build () in
  let holder, level, digit = find_victim_slot net ~min_entries:1 in
  let entry = List.hd (Routing_table.slot holder.Node.table ~level ~digit) in
  let target = Network.find_exn net entry.Routing_table.id in
  (* record the holder a second time, breaking the append's precondition *)
  Routing_table.add_backpointer target.Node.table ~level
    ~handle:holder.Node.handle holder.Node.id;
  let report = Audit.run net in
  Alcotest.(check (list string)) "exactly one violation"
    [ "duplicate-backpointer" ] (codes report);
  match report.Audit.violations with
  | [ Audit.Duplicate_backpointer { node; level = l; source } ] ->
      Alcotest.(check bool) "node" true (Node_id.equal node target.Node.id);
      Alcotest.(check int) "level" level l;
      Alcotest.(check bool) "source" true (Node_id.equal source holder.Node.id)
  | _ -> Alcotest.fail "unexpected violation payload"

let test_duplicate_entry_detected () =
  let net, _ = build () in
  (* a slot with room for one more entry, so the copy evicts nobody *)
  let r = net.Network.config.Config.redundancy in
  let found = ref None in
  List.iter
    (fun (n : Node.t) ->
      Routing_table.iter_entries n.Node.table (fun ~level ~digit _ ->
          let len = Routing_table.slot_len n.Node.table ~level ~digit in
          if
            Option.is_none !found
            && digit <> Node_id.digit n.Node.id level
            && len < r
          then found := Some (n, level, digit)))
    (Network.core_nodes net);
  let node, level, digit =
    match !found with
    | Some v -> v
    | None -> Alcotest.fail "no slot with spare room found"
  in
  let entries = with_handles net (Routing_table.slot node.Node.table ~level ~digit) in
  Routing_table.inject_slot_for_test node.Node.table ~level ~digit
    (List.hd entries :: entries);
  let report = Audit.run net in
  Alcotest.(check (list string)) "exactly one violation" [ "duplicate-entry" ]
    (codes report);
  match report.Audit.violations with
  | [ Audit.Duplicate_entry { node = n; level = l; digit = d; entry } ] ->
      Alcotest.(check bool) "node" true (Node_id.equal n node.Node.id);
      Alcotest.(check int) "level" level l;
      Alcotest.(check int) "digit" digit d;
      Alcotest.(check bool) "entry" true
        (Node_id.equal entry (fst (List.hd entries)).Routing_table.id)
  | _ -> Alcotest.fail "unexpected violation payload"

let test_handle_less_entry_detected () =
  let net, _ = build () in
  let node, level, digit = find_victim_slot net ~min_entries:1 in
  let entries = with_handles net (Routing_table.slot node.Node.table ~level ~digit) in
  (* the slot's first entry loses its handle, nothing else changes *)
  let first, _ = List.hd entries in
  Routing_table.inject_slot_for_test node.Node.table ~level ~digit
    ((first, -1) :: List.tl entries);
  let report = Audit.run net in
  Alcotest.(check (list string)) "slot entry: exactly one violation"
    [ "handle-less-entry" ] (codes report);
  (match report.Audit.violations with
  | [ Audit.Handle_less_entry { node = n; level = l; entry; backpointer } ] ->
      Alcotest.(check bool) "node" true (Node_id.equal n node.Node.id);
      Alcotest.(check int) "level" level l;
      Alcotest.(check bool) "entry" true
        (Node_id.equal entry first.Routing_table.id);
      Alcotest.(check bool) "in a slot" false backpointer
  | _ -> Alcotest.fail "unexpected violation payload");
  Routing_table.inject_slot_for_test node.Node.table ~level ~digit entries;
  check_clean "slot restored" (Audit.run net);
  (* the same defect in a backpointer vector *)
  let target = Network.find_exn net first.Routing_table.id in
  Routing_table.remove_backpointer target.Node.table ~level node.Node.id;
  Routing_table.add_backpointer target.Node.table ~level ~handle:(-1)
    node.Node.id;
  let report = Audit.run net in
  Alcotest.(check (list string)) "backpointer: exactly one violation"
    [ "handle-less-entry" ] (codes report);
  match report.Audit.violations with
  | [ Audit.Handle_less_entry { node = n; entry; backpointer; _ } ] ->
      Alcotest.(check bool) "node" true (Node_id.equal n target.Node.id);
      Alcotest.(check bool) "holder" true (Node_id.equal entry node.Node.id);
      Alcotest.(check bool) "in a backpointer vector" true backpointer
  | _ -> Alcotest.fail "unexpected violation payload"

(* Joins during a churned serve run take the append-only backpointer path;
   after quiescing, the mesh holds neither of the defects it would leave. *)
let test_churned_serve_no_fast_path_violation () =
  let n = 256 and seed = 42 in
  let rng = Simnet.Rng.create seed in
  let metric = Simnet.Topology.generate Simnet.Topology.Uniform_square ~n ~rng in
  let net, _ =
    Static_build.build_streamed ~seed:(seed + 1) Config.default metric ~n
  in
  let params =
    {
      Serve.Driver.default with
      Serve.Driver.requests = 4_000;
      rate = 40_000.;
      objects = 200;
      window = 0.02;
      kill_rate = 100.;
      join_rate = 100.;
    }
  in
  let clock = ref 0. in
  let now () = clock := !clock +. 1.; !clock in
  let r = Serve.Driver.run ~net params ~now in
  Alcotest.(check bool) "churn fired" true
    (r.Serve.Driver.kills > 0 && r.Serve.Driver.joins > 0);
  Serve.Shard.quiesce r.Serve.Driver.engine
    ~clock:(r.Serve.Driver.duration_v +. 1.);
  check_no_fast_path_violation "churned serve run" (Audit.run net)

let test_expired_pointer_detected () =
  let net, _ = build () in
  let cfg = net.Network.config in
  let server = Network.random_alive net in
  let guid =
    Node_id.random ~base:cfg.Config.base ~len:cfg.Config.id_digits
      net.Network.rng
  in
  ignore (Publish.publish net ~server guid);
  check_clean "before corruption" (Audit.run net);
  let root = Network.surrogate_oracle net guid in
  let record =
    match
      Pointer_store.find root.Node.pointers ~guid ~server:server.Node.id
        ~root_idx:0
    with
    | Some r -> r
    | None -> Alcotest.fail "root lost the pointer it was published"
  in
  record.Pointer_store.expires <- net.Network.clock -. 1.;
  let report = Audit.run net in
  Alcotest.(check (list string)) "exactly one violation"
    [ "expired-pointer" ] (codes report);
  match report.Audit.violations with
  | [ Audit.Expired_pointer { node; guid = g; server = s; _ } ] ->
      Alcotest.(check bool) "at the root" true (Node_id.equal node root.Node.id);
      Alcotest.(check bool) "guid" true (Node_id.equal g guid);
      Alcotest.(check bool) "server" true (Node_id.equal s server.Node.id)
  | _ -> Alcotest.fail "unexpected violation payload"

let test_property4_finds_deleted_pointer () =
  let net, _ = build () in
  let cfg = net.Network.config in
  let server = Network.random_alive net in
  let guid =
    Node_id.random ~base:cfg.Config.base ~len:cfg.Config.id_digits
      net.Network.rng
  in
  ignore (Publish.publish net ~server guid);
  Alcotest.(check int) "publish leaves no gaps" 0
    (List.length (Verify.check_property4 net));
  let root = Network.surrogate_oracle net guid in
  Alcotest.(check bool) "pointer removed" true
    (Pointer_store.remove root.Node.pointers ~guid ~server:server.Node.id
       ~root_idx:0);
  match Verify.check_property4 net with
  | [ gap ] ->
      Alcotest.(check bool) "guid" true (Node_id.equal gap.Verify.guid guid);
      Alcotest.(check bool) "server" true
        (Node_id.equal gap.Verify.server server.Node.id);
      Alcotest.(check bool) "missing at the root" true
        (Node_id.equal gap.Verify.missing_at root.Node.id)
  | gaps ->
      Alcotest.failf "expected exactly one gap, got %d" (List.length gaps)

let () =
  Alcotest.run "audit"
    [
      ( "clean states",
        [
          Alcotest.test_case "fresh 256-node network" `Quick
            test_fresh_network_clean;
          Alcotest.test_case "after publishes" `Quick test_clean_after_publishes;
          Alcotest.test_case "churned serve run: no fast-path defects" `Quick
            test_churned_serve_no_fast_path_violation;
        ] );
      ( "injected corruptions",
        [
          Alcotest.test_case "dropped backpointer" `Quick
            test_dropped_backpointer_detected;
          Alcotest.test_case "reordered slot" `Quick test_reordered_slot_detected;
          Alcotest.test_case "faked hole" `Quick test_fake_hole_detected;
          Alcotest.test_case "evicted owner" `Quick test_missing_owner_detected;
          Alcotest.test_case "expired pointer" `Quick
            test_expired_pointer_detected;
          Alcotest.test_case "duplicate backpointer" `Quick
            test_duplicate_backpointer_detected;
          Alcotest.test_case "duplicate entry" `Quick
            test_duplicate_entry_detected;
          Alcotest.test_case "handle-less entry" `Quick
            test_handle_less_entry_detected;
        ] );
      ( "verify regressions",
        [
          Alcotest.test_case "check_property4 finds deleted pointer" `Quick
            test_property4_finds_deleted_pointer;
        ] );
    ]
