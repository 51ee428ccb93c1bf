(* Object-pointer cache tests (PR 9, DESIGN.md section 10):

   - Obj_cache unit behavior: interning, clock second-chance eviction,
     conditional evict, per-(object, server) epoch staleness, hint
     imports;
   - the synchronous locate path: warm hits shorten later locates
     without changing answers, a partial unpublish (one replica of two)
     leaves shortcuts to the surviving replica valid, and the audit's
     cache-coherence check accepts the quiescent state;
   - planted hints naming a replica that is later retracted never
     answer a locate;
   - a hand-corrupted entry (live server that never held the replica)
     is flagged Cache_incoherent by the audit;
   - driver mesh reuse: clearing soft state and restoring the RNG
     replays a serve run bit-identically (the bench row fast path). *)

open Tapestry
module Rng = Simnet.Rng
module Driver = Serve.Driver

let build ?(n = 120) ?(seed = 11) () =
  let rng = Rng.create seed in
  let metric =
    Simnet.Topology.generate Simnet.Topology.Uniform_square ~n ~rng
  in
  let addrs = List.init n (fun i -> i) in
  Static_build.build ~seed:(seed + 1) Config.default metric ~addrs

let random_guid net =
  let cfg = net.Network.config in
  Node_id.random ~base:cfg.Config.base ~len:cfg.Config.id_digits
    net.Network.rng

(* ---- Obj_cache units ---- *)

let mk ?(ways = 2) ?(nodes = 4) () = Obj_cache.create ~ways ~nodes

let test_intern_roundtrip () =
  let c = mk () in
  let net = build ~n:8 () in
  let g1 = random_guid net and g2 = random_guid net in
  let k1 = Obj_cache.intern c g1 in
  let k2 = Obj_cache.intern c g2 in
  Alcotest.(check bool) "distinct keys" true (k1 <> k2);
  Alcotest.(check int) "intern idempotent" k1 (Obj_cache.intern c g1);
  Alcotest.(check int) "find_key finds" k2 (Obj_cache.find_key c g2);
  Alcotest.(check bool) "guid_of_key inverts" true
    (Node_id.equal g1 (Obj_cache.guid_of_key c k1));
  Alcotest.(check int) "find_key misses cleanly" (-1)
    (Obj_cache.find_key c (random_guid net))

let test_insert_probe_evict () =
  let c = mk ~ways:2 () in
  Obj_cache.insert c ~h:1 ~key:0 ~server:7 ~gen:0;
  let i = Obj_cache.probe c ~h:1 ~key:0 in
  Alcotest.(check bool) "hit" true (i >= 0);
  Alcotest.(check int) "server" 7 (Obj_cache.probe_srv c i);
  Alcotest.(check int) "other line misses" (-1) (Obj_cache.probe c ~h:2 ~key:0);
  (* refresh in place: same key re-inserted names the new server *)
  Obj_cache.insert c ~h:1 ~key:0 ~server:9 ~gen:0;
  Alcotest.(check int) "refreshed" 9
    (Obj_cache.probe_srv c (Obj_cache.probe c ~h:1 ~key:0));
  Alcotest.(check int) "one entry, not two" 1 (Obj_cache.entries c);
  (* conditional evict: wrong server is a no-op, right server clears *)
  Obj_cache.evict c ~h:1 ~key:0 ~server:7;
  Alcotest.(check bool) "evict checks server" true
    (Obj_cache.probe c ~h:1 ~key:0 >= 0);
  Obj_cache.evict c ~h:1 ~key:0 ~server:9;
  Alcotest.(check int) "evicted" (-1) (Obj_cache.probe c ~h:1 ~key:0)

let test_doorkeeper_admission () =
  let c = mk ~ways:2 () in
  Obj_cache.insert c ~h:0 ~key:1 ~server:1 ~gen:0;
  Obj_cache.insert c ~h:0 ~key:2 ~server:2 ~gen:0;
  (* a full line declines a first-touch key instead of evicting ... *)
  Obj_cache.insert c ~h:0 ~key:3 ~server:3 ~gen:0;
  Alcotest.(check int) "first touch declined" (-1)
    (Obj_cache.probe c ~h:0 ~key:3);
  Alcotest.(check bool) "residents untouched" true
    (Obj_cache.probe c ~h:0 ~key:1 >= 0
    && Obj_cache.probe c ~h:0 ~key:2 >= 0);
  (* ... and admits the second touch (now a proven repeater) *)
  Obj_cache.insert c ~h:0 ~key:3 ~server:3 ~gen:0;
  Alcotest.(check bool) "second touch admitted" true
    (Obj_cache.probe c ~h:0 ~key:3 >= 0);
  Alcotest.(check int) "line stays bounded" 2 (Obj_cache.entries c)

let test_clock_second_chance () =
  let c = mk ~ways:2 () in
  Obj_cache.insert c ~h:0 ~key:1 ~server:1 ~gen:0;
  Obj_cache.insert c ~h:0 ~key:2 ~server:2 ~gen:0;
  (* double-insert key 3 to pass the doorkeeper; both residents'
     reference bits are set at fill, so the overflow sweeps them clear
     and evicts at the hand (key 1) *)
  Obj_cache.insert c ~h:0 ~key:3 ~server:3 ~gen:0;
  Obj_cache.insert c ~h:0 ~key:3 ~server:3 ~gen:0;
  Alcotest.(check int) "hand victim evicted" (-1)
    (Obj_cache.probe c ~h:0 ~key:1);
  (* now key 3's bit is set (fill + probe), key 2's is clear: the next
     admitted overflow must spare the referenced entry and victimize
     key 2 *)
  ignore (Obj_cache.probe c ~h:0 ~key:3 : int);
  Obj_cache.insert c ~h:0 ~key:4 ~server:4 ~gen:0;
  Obj_cache.insert c ~h:0 ~key:4 ~server:4 ~gen:0;
  Alcotest.(check bool) "referenced entry survives" true
    (Obj_cache.probe c ~h:0 ~key:3 >= 0);
  Alcotest.(check int) "unreferenced entry victimized" (-1)
    (Obj_cache.probe c ~h:0 ~key:2);
  Alcotest.(check bool) "new entry resident" true
    (Obj_cache.probe c ~h:0 ~key:4 >= 0);
  Alcotest.(check int) "line stays bounded" 2 (Obj_cache.entries c)

let test_pair_epoch_staleness () =
  let c = mk ~ways:2 () in
  Obj_cache.insert c ~h:0 ~key:5 ~server:3 ~gen:0;
  (* retracting the SAME object from a DIFFERENT server must not touch
     this entry — that is the point of pair granularity *)
  Obj_cache.bump_epoch c ~key:5 ~srv:8;
  Alcotest.(check bool) "other server's retraction ignored" true
    (Obj_cache.probe c ~h:0 ~key:5 >= 0);
  Obj_cache.bump_epoch c ~key:5 ~srv:3;
  Alcotest.(check int) "named server's retraction stales" (-2)
    (Obj_cache.probe c ~h:0 ~key:5);
  Alcotest.(check int) "stale probe self-evicted" (-1)
    (Obj_cache.probe c ~h:0 ~key:5);
  (* a refill snapshots the bumped epoch and is valid again *)
  Obj_cache.insert c ~h:0 ~key:5 ~server:3 ~gen:0;
  Alcotest.(check bool) "refill current again" true
    (Obj_cache.probe c ~h:0 ~key:5 >= 0)

(* ---- cooperative hint imports ---- *)

let test_hint_import () =
  let c = mk ~ways:4 ~nodes:4 () in
  Obj_cache.insert c ~h:0 ~key:1 ~server:11 ~gen:0;
  let epoch = Obj_cache.epoch_of c ~key:1 ~srv:11 in
  Alcotest.(check bool) "import lands in an empty way" true
    (Obj_cache.import_hint c ~h:1 ~key:1 ~server:11 ~gen:0 ~epoch);
  let i = Obj_cache.probe c ~h:1 ~key:1 in
  Alcotest.(check bool) "hint probes as a hit" true (i >= 0);
  Alcotest.(check bool) "entry is hint-sourced" true
    (Obj_cache.probe_is_hint c i);
  Alcotest.(check int) "hint names the offered server" 11
    (Obj_cache.probe_srv c i);
  Alcotest.(check bool) "learned entry is not hint-sourced" false
    (Obj_cache.probe_is_hint c (Obj_cache.probe c ~h:0 ~key:1));
  Alcotest.(check bool) "own learning wins: held key declines re-import"
    false
    (Obj_cache.import_hint c ~h:1 ~key:1 ~server:99 ~gen:0 ~epoch);
  (* a full line's organic fill replaces a hint before it evicts (or
     asks the doorkeeper about) anything the node learned itself *)
  Obj_cache.insert c ~h:1 ~key:2 ~server:12 ~gen:0;
  Obj_cache.insert c ~h:1 ~key:3 ~server:13 ~gen:0;
  Obj_cache.insert c ~h:1 ~key:4 ~server:14 ~gen:0;
  Obj_cache.insert c ~h:1 ~key:5 ~server:15 ~gen:0;
  Alcotest.(check int) "the hint made room" (-1) (Obj_cache.probe c ~h:1 ~key:1);
  Alcotest.(check bool) "first-touch fill landed" true
    (Obj_cache.probe c ~h:1 ~key:5 >= 0)

let test_hint_import_never_displaces () =
  let c = mk ~ways:2 ~nodes:2 () in
  Obj_cache.insert c ~h:0 ~key:1 ~server:1 ~gen:0;
  Obj_cache.insert c ~h:0 ~key:2 ~server:2 ~gen:0;
  let ep3 = Obj_cache.epoch_of c ~key:3 ~srv:3 in
  Alcotest.(check bool) "full line declines a hint" false
    (Obj_cache.import_hint c ~h:0 ~key:3 ~server:3 ~gen:0 ~epoch:ep3);
  Alcotest.(check bool) "residents untouched" true
    (Obj_cache.probe c ~h:0 ~key:1 >= 0 && Obj_cache.probe c ~h:0 ~key:2 >= 0);
  (* an epoch-stale probe frees the way, and then the hint can land *)
  Obj_cache.bump_epoch c ~key:1 ~srv:1;
  Alcotest.(check int) "stale probe self-evicts" (-2)
    (Obj_cache.probe c ~h:0 ~key:1);
  Alcotest.(check bool) "freed way accepts the hint" true
    (Obj_cache.import_hint c ~h:0 ~key:3 ~server:3 ~gen:0 ~epoch:ep3)

let test_hint_staleness_self_evicts () =
  let c = mk ~ways:2 ~nodes:2 () in
  let ep = Obj_cache.epoch_of c ~key:7 ~srv:4 in
  Alcotest.(check bool) "hint lands" true
    (Obj_cache.import_hint c ~h:1 ~key:7 ~server:4 ~gen:0 ~epoch:ep);
  (* the retraction machinery is shared with organic entries: an epoch
     bump stales the hint, the next probe self-evicts it *)
  Obj_cache.bump_epoch c ~key:7 ~srv:4;
  Alcotest.(check int) "stale hint-hit self-evicts" (-2)
    (Obj_cache.probe c ~h:1 ~key:7);
  Alcotest.(check int) "way is free again" (-1)
    (Obj_cache.probe c ~h:1 ~key:7)

let test_reset_clears_soft_state () =
  let c = mk ~ways:2 ~nodes:2 () in
  let net = build ~n:8 () in
  let g = random_guid net in
  let key = Obj_cache.intern c g in
  Obj_cache.insert c ~h:0 ~key ~server:1 ~gen:0;
  ignore (Obj_cache.probe c ~h:0 ~key : int);
  ignore
    (Obj_cache.import_hint c ~h:1 ~key:5 ~server:2 ~gen:0
       ~epoch:(Obj_cache.epoch_of c ~key:5 ~srv:2)
      : bool);
  Obj_cache.bump_epoch c ~key ~srv:9;
  Obj_cache.reset c;
  Alcotest.(check int) "no entries survive reset" 0 (Obj_cache.entries c);
  Alcotest.(check int) "probe misses" (-1) (Obj_cache.probe c ~h:0 ~key);
  Alcotest.(check int) "hint gone" (-1) (Obj_cache.probe c ~h:1 ~key:5);
  Alcotest.(check int) "tally cleared" 0
    (Simnet.Stats.Tally.lookups c.Obj_cache.tally);
  Alcotest.(check int) "pair epochs cleared" 0
    (Obj_cache.epoch_of c ~key ~srv:9);
  Alcotest.(check int) "associativity survives" 2 c.Obj_cache.ways;
  Alcotest.(check int) "interning survives" key (Obj_cache.find_key c g)

(* ---- synchronous locate path ---- *)

let attach_cache ?(ways = 4) net =
  let c = Obj_cache.create ~ways ~nodes:net.Network.arena_len in
  net.Network.obj_cache <- Some c;
  c

let test_sync_warm_hits () =
  let net = build () in
  let c = attach_cache net in
  let server = Network.random_alive net in
  let guid = random_guid net in
  ignore (Publish.publish net ~server guid);
  let client = Network.random_alive net in
  let r1 = Locate.locate net ~client guid in
  Alcotest.(check bool) "cold locate finds" true (r1.Locate.server <> None);
  Alcotest.(check bool) "unwind filled the path" true
    (c.Obj_cache.tally.Simnet.Stats.Tally.fills > 0);
  let hits0 = c.Obj_cache.tally.Simnet.Stats.Tally.hits in
  let r2 = Locate.locate net ~client guid in
  Alcotest.(check bool) "warm locate finds" true (r2.Locate.server <> None);
  Alcotest.(check bool) "warm locate hit the cache" true
    (c.Obj_cache.tally.Simnet.Stats.Tally.hits > hits0);
  Alcotest.(check bool) "warm walk no longer than cold" true
    (List.length r2.Locate.walk <= List.length r1.Locate.walk);
  (match (r1.Locate.server, r2.Locate.server) with
  | Some a, Some b ->
      Alcotest.(check bool) "same answer" true
        (Node_id.equal a.Node.id b.Node.id)
  | _ -> ());
  let report = Audit.run net in
  if not (Audit.is_clean report) then
    Alcotest.failf "warm mesh not audit-clean: %s"
      (Format.asprintf "%a" Audit.pp_report report)

let test_sync_partial_unpublish () =
  let net = build ~n:150 ~seed:23 () in
  ignore (attach_cache net);
  let s1 = Network.random_alive net in
  let s2 = Network.random_alive net in
  if Node_id.equal s1.Node.id s2.Node.id then
    Alcotest.fail "test needs two distinct servers (reseed)";
  let guid = random_guid net in
  ignore (Publish.publish net ~server:s1 guid);
  ignore (Publish.publish net ~server:s2 guid);
  (* warm caches from several clients, then retract ONE replica *)
  for _ = 1 to 10 do
    let client = Network.random_alive net in
    ignore (Locate.locate net ~client guid)
  done;
  Publish.unpublish net ~server:s1 guid;
  (* every locate must still resolve — a shortcut naming s1 is now
     epoch-stale (degrades to the climb), one naming s2 is still valid *)
  for _ = 1 to 20 do
    let client = Network.random_alive net in
    match (Locate.locate net ~client guid).Locate.server with
    | None -> Alcotest.fail "locate lost the surviving replica"
    | Some s ->
        Alcotest.(check bool) "answers the surviving server" true
          (Node_id.equal s.Node.id s2.Node.id)
  done;
  let report = Audit.run net in
  if not (Audit.is_clean report) then
    Alcotest.failf "post-unpublish mesh not audit-clean: %s"
      (Format.asprintf "%a" Audit.pp_report report)

(* Unpublish must retract propagated hints everywhere at once: the
   epoch bump stales every copy, a later hint-hit self-evicts and the
   climb resumes — no client may be answered with the retracted
   replica.  Every node is offered a hint naming the replica that is
   then retracted, the way the serve barrier offers digest rows. *)
let test_sync_hint_staleness () =
  let net = build ~n:150 ~seed:23 () in
  let c = attach_cache ~ways:8 net in
  let s1 = Network.random_alive net in
  let s2 = Network.random_alive net in
  if Node_id.equal s1.Node.id s2.Node.id then
    Alcotest.fail "test needs two distinct servers (reseed)";
  let guid = random_guid net in
  ignore (Publish.publish net ~server:s1 guid : Publish.outcome);
  ignore (Publish.publish net ~server:s2 guid : Publish.outcome);
  let key = Obj_cache.intern c guid in
  let epoch = Obj_cache.epoch_of c ~key ~srv:s1.Node.handle in
  let landed = ref 0 in
  Network.iter_alive net (fun n ->
      if
        Obj_cache.import_hint c ~h:n.Node.handle ~key ~server:s1.Node.handle
          ~gen:0 ~epoch
      then incr landed);
  Alcotest.(check bool) "hints landed" true (!landed > 0);
  let hits0 = c.Obj_cache.tally.Simnet.Stats.Tally.hits in
  ignore (Locate.locate net ~client:(Network.random_alive net) guid
    : Locate.result);
  Alcotest.(check bool) "a hint answered before the retraction" true
    (c.Obj_cache.tally.Simnet.Stats.Tally.hits > hits0);
  Publish.unpublish net ~server:s1 guid;
  for _ = 1 to 30 do
    let client = Network.random_alive net in
    match (Locate.locate net ~client guid).Locate.server with
    | None -> Alcotest.fail "locate lost the surviving replica"
    | Some s ->
        Alcotest.(check bool) "never answers the retracted replica" true
          (Node_id.equal s.Node.id s2.Node.id)
  done;
  let report = Audit.run net in
  if not (Audit.is_clean report) then
    Alcotest.failf "post-unpublish hinted mesh not audit-clean: %s"
      (Format.asprintf "%a" Audit.pp_report report)

let test_audit_flags_corruption () =
  let net = build () in
  let c = attach_cache net in
  let server = Network.random_alive net in
  let guid = random_guid net in
  ignore (Publish.publish net ~server guid);
  (* plant an epoch-current entry claiming a live non-server holds the
     replica: exactly the lie the coherence check exists to catch *)
  let impostor =
    let rec pick () =
      let n = Network.random_alive net in
      if Node.stores_replica n guid then pick () else n
    in
    pick ()
  in
  let key = Obj_cache.intern c guid in
  Obj_cache.ensure_nodes c net.Network.arena_len;
  Obj_cache.insert c ~h:0 ~key ~server:impostor.Node.handle ~gen:0;
  let report = Audit.run net in
  let flagged =
    List.exists
      (function Audit.Cache_incoherent _ -> true | _ -> false)
      report.Audit.violations
  in
  Alcotest.(check bool) "audit flags the corrupt entry" true flagged

(* ---- serve driver: cache accounting and mesh reuse ---- *)

let build_streamed n seed =
  let rng = Rng.create seed in
  let metric =
    Simnet.Topology.generate Simnet.Topology.Uniform_square ~n ~rng
  in
  let net, _stats =
    Static_build.build_streamed ~seed:(seed + 1) Config.default metric ~n
  in
  net

let fake_clock () =
  let c = ref 0. in
  fun () ->
    c := !c +. 1.;
    !c

let cached_params =
  {
    Driver.default with
    Driver.requests = 4_000;
    rate = 40_000.;
    objects = 200;
    window = 0.02;
    cache_size = 8;
  }

let test_driver_cache_counters () =
  let net = build_streamed 256 42 in
  let r = Driver.run ~net cached_params ~now:(fake_clock ()) in
  let tl = r.Driver.tally in
  let open Simnet.Stats in
  Alcotest.(check bool) "cache consulted" true (Tally.lookups tl > 0);
  Alcotest.(check bool) "cache hit" true (tl.Tally.hits > 0);
  Alcotest.(check bool) "cache filled" true (tl.Tally.fills > 0);
  Alcotest.(check int) "requests all resolved" r.Driver.injected
    (r.Driver.completed + r.Driver.failed)

let test_mesh_reuse_replay () =
  let net = build_streamed 256 42 in
  let snap = Rng.copy net.Network.rng in
  let r1 = Driver.run ~net cached_params ~now:(fake_clock ()) in
  Network.clear_soft_state net;
  net.Network.rng <- Rng.copy snap;
  let r2 = Driver.run ~net cached_params ~now:(fake_clock ()) in
  Alcotest.(check string) "soft-state reset replays bit-identically"
    (Driver.signature r1) (Driver.signature r2)

let test_mesh_reuse_replay_coop () =
  (* the replay guarantee must survive cooperation: leftover sketch
     counts, hint marks or digest state from row one would perturb row
     two's exchange and change its signature *)
  let params = { cached_params with Driver.coop = true } in
  let net = build_streamed 256 42 in
  let snap = Rng.copy net.Network.rng in
  let r1 = Driver.run ~net params ~now:(fake_clock ()) in
  Network.clear_soft_state net;
  net.Network.rng <- Rng.copy snap;
  let r2 = Driver.run ~net params ~now:(fake_clock ()) in
  Alcotest.(check string) "cooperative rows replay bit-identically"
    (Driver.signature r1) (Driver.signature r2);
  (* and a cooperative row must not leak into a later plain-cache row *)
  Network.clear_soft_state net;
  net.Network.rng <- Rng.copy snap;
  let r3 = Driver.run ~net cached_params ~now:(fake_clock ()) in
  let net2 = build_streamed 256 42 in
  let r4 = Driver.run ~net:net2 cached_params ~now:(fake_clock ()) in
  Alcotest.(check string) "coop row leaves no residue for the next row"
    (Driver.signature r4) (Driver.signature r3)

let () =
  Alcotest.run "cache"
    [
      ( "obj_cache",
        [
          Alcotest.test_case "intern/find_key/guid_of_key round-trip" `Quick
            test_intern_roundtrip;
          Alcotest.test_case "insert, probe, refresh, conditional evict"
            `Quick test_insert_probe_evict;
          Alcotest.test_case "doorkeeper declines first touch, admits second"
            `Quick test_doorkeeper_admission;
          Alcotest.test_case "clock second-chance spares recent hits" `Quick
            test_clock_second_chance;
          Alcotest.test_case "epochs invalidate per (object, server) pair"
            `Quick test_pair_epoch_staleness;
        ] );
      ( "hints",
        [
          Alcotest.test_case
            "import lands hint-marked, yields to learning" `Quick
            test_hint_import;
          Alcotest.test_case "imports never displace resident entries"
            `Quick test_hint_import_never_displaces;
          Alcotest.test_case "stale hint-hit self-evicts" `Quick
            test_hint_staleness_self_evicts;
          Alcotest.test_case "reset clears sketch, keeps interning + config"
            `Quick test_reset_clears_soft_state;
        ] );
      ( "sync",
        [
          Alcotest.test_case "warm hits shorten locates, same answers"
            `Quick test_sync_warm_hits;
          Alcotest.test_case
            "partial unpublish keeps surviving-replica shortcuts" `Quick
            test_sync_partial_unpublish;
          Alcotest.test_case "unpublish retracts propagated hints" `Quick
            test_sync_hint_staleness;
          Alcotest.test_case "audit flags a corrupt entry" `Quick
            test_audit_flags_corruption;
        ] );
      ( "driver",
        [
          Alcotest.test_case "cache counters populated, accounting balances"
            `Quick test_driver_cache_counters;
          Alcotest.test_case "mesh reuse replays bit-identically" `Quick
            test_mesh_reuse_replay;
          Alcotest.test_case "cooperative rows replay bit-identically"
            `Quick test_mesh_reuse_replay_coop;
        ] );
    ]
