(* Object-pointer cache tests (PR 9, DESIGN.md section 10):

   - Obj_cache unit behavior: interning, clock second-chance eviction,
     conditional evict, per-(object, server) epoch staleness, hint
     imports;
   - a cache attached to a sync mesh: [Publish.unpublish] of one replica
     of two stales the entries naming it and leaves the entries naming
     the surviving replica valid, and the audit's cache-coherence check
     accepts the result;
   - a hand-corrupted entry (live server that never held the replica)
     is flagged Cache_incoherent by the audit;
   - driver mesh reuse: clearing soft state and restoring the RNG
     replays a serve run bit-identically (the bench row fast path).

   Reads and fills by served locates, and the retraction of planted
   entries through a served UNPUBLISH, are tested in test_serve. *)

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

(* A learned fill snapshotting the pair's current epoch. *)
let fill c ~h ~key ~server =
  Obj_cache.insert c ~h ~key ~server
    ~epoch:(Obj_cache.epoch_of c ~key ~srv:server)

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
  fill c ~h:1 ~key:0 ~server:7;
  let i = Obj_cache.probe c ~h:1 ~key:0 in
  Alcotest.(check bool) "hit" true (i >= 0);
  Alcotest.(check int) "server" 7 (Obj_cache.probe_srv c i);
  Alcotest.(check int) "other line misses" (-1) (Obj_cache.probe c ~h:2 ~key:0);
  (* refresh in place: same key re-inserted names the new server *)
  fill c ~h:1 ~key:0 ~server:9;
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
  fill c ~h:0 ~key:1 ~server:1;
  fill c ~h:0 ~key:2 ~server:2;
  (* a full line declines a first-touch key instead of evicting ... *)
  fill c ~h:0 ~key:3 ~server:3;
  Alcotest.(check int) "first touch declined" (-1)
    (Obj_cache.probe c ~h:0 ~key:3);
  Alcotest.(check bool) "residents untouched" true
    (Obj_cache.probe c ~h:0 ~key:1 >= 0
    && Obj_cache.probe c ~h:0 ~key:2 >= 0);
  (* ... and admits the second touch (now a proven repeater) *)
  fill c ~h:0 ~key:3 ~server:3;
  Alcotest.(check bool) "second touch admitted" true
    (Obj_cache.probe c ~h:0 ~key:3 >= 0);
  Alcotest.(check int) "line stays bounded" 2 (Obj_cache.entries c)

let test_clock_second_chance () =
  let c = mk ~ways:2 () in
  fill c ~h:0 ~key:1 ~server:1;
  fill c ~h:0 ~key:2 ~server:2;
  (* double-insert key 3 to pass the doorkeeper; both residents'
     reference bits are set at fill, so the overflow sweeps them clear
     and evicts at the hand (key 1) *)
  fill c ~h:0 ~key:3 ~server:3;
  fill c ~h:0 ~key:3 ~server:3;
  Alcotest.(check int) "hand victim evicted" (-1)
    (Obj_cache.probe c ~h:0 ~key:1);
  (* now key 3's bit is set (fill + probe), key 2's is clear: the next
     admitted overflow must spare the referenced entry and victimize
     key 2 *)
  ignore (Obj_cache.probe c ~h:0 ~key:3 : int);
  fill c ~h:0 ~key:4 ~server:4;
  fill c ~h:0 ~key:4 ~server:4;
  Alcotest.(check bool) "referenced entry survives" true
    (Obj_cache.probe c ~h:0 ~key:3 >= 0);
  Alcotest.(check int) "unreferenced entry victimized" (-1)
    (Obj_cache.probe c ~h:0 ~key:2);
  Alcotest.(check bool) "new entry resident" true
    (Obj_cache.probe c ~h:0 ~key:4 >= 0);
  Alcotest.(check int) "line stays bounded" 2 (Obj_cache.entries c)

let test_pair_epoch_staleness () =
  let c = mk ~ways:2 () in
  fill c ~h:0 ~key:5 ~server:3;
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
  fill c ~h:0 ~key:5 ~server:3;
  Alcotest.(check bool) "refill current again" true
    (Obj_cache.probe c ~h:0 ~key:5 >= 0)

(* The epoch table against a map model: thousands of bumps over pairs
   whose keys and server handles share low bits (so cells collide and
   the table grows several times), every count read back, pairs never
   bumped read 0, and [reset] forgets them all. *)
let test_epoch_table_model () =
  let c = mk ~ways:2 () in
  let model = Hashtbl.create 64 in
  let rng = Simnet.Rng.create 5 in
  for _ = 1 to 6_000 do
    let key = Simnet.Rng.int rng 600 * 1024 in
    let srv = Simnet.Rng.int rng 8 * 4096 in
    Obj_cache.bump_epoch c ~key ~srv;
    Hashtbl.replace model (key, srv)
      (1 + Option.value ~default:0 (Hashtbl.find_opt model (key, srv)))
  done;
  Hashtbl.iter
    (fun (key, srv) n ->
      if Obj_cache.epoch_of c ~key ~srv <> n then
        Alcotest.failf "pair (%d, %d): epoch %d, model %d" key srv
          (Obj_cache.epoch_of c ~key ~srv) n)
    model;
  Alcotest.(check int) "a pair never bumped" 0
    (Obj_cache.epoch_of c ~key:1 ~srv:1);
  Obj_cache.reset c;
  Hashtbl.iter
    (fun (key, srv) _ ->
      if Obj_cache.epoch_of c ~key ~srv <> 0 then
        Alcotest.failf "pair (%d, %d) survives reset" key srv)
    model

(* ---- cooperative hint imports ---- *)

let test_hint_import () =
  let c = mk ~ways:4 ~nodes:4 () in
  fill c ~h:0 ~key:1 ~server:11;
  let epoch = Obj_cache.epoch_of c ~key:1 ~srv:11 in
  Alcotest.(check bool) "import lands in an empty way" true
    (Obj_cache.import_hint c ~h:1 ~key:1 ~server:11 ~epoch);
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
    (Obj_cache.import_hint c ~h:1 ~key:1 ~server:99 ~epoch);
  (* a full line's organic fill replaces a hint before it evicts (or
     asks the doorkeeper about) anything the node learned itself *)
  fill c ~h:1 ~key:2 ~server:12;
  fill c ~h:1 ~key:3 ~server:13;
  fill c ~h:1 ~key:4 ~server:14;
  fill c ~h:1 ~key:5 ~server:15;
  Alcotest.(check int) "the hint made room" (-1) (Obj_cache.probe c ~h:1 ~key:1);
  Alcotest.(check bool) "first-touch fill landed" true
    (Obj_cache.probe c ~h:1 ~key:5 >= 0)

let test_hint_import_never_displaces () =
  let c = mk ~ways:2 ~nodes:2 () in
  fill c ~h:0 ~key:1 ~server:1;
  fill c ~h:0 ~key:2 ~server:2;
  let ep3 = Obj_cache.epoch_of c ~key:3 ~srv:3 in
  Alcotest.(check bool) "full line declines a hint" false
    (Obj_cache.import_hint c ~h:0 ~key:3 ~server:3 ~epoch:ep3);
  Alcotest.(check bool) "residents untouched" true
    (Obj_cache.probe c ~h:0 ~key:1 >= 0 && Obj_cache.probe c ~h:0 ~key:2 >= 0);
  (* an epoch-stale probe frees the way, and then the hint can land *)
  Obj_cache.bump_epoch c ~key:1 ~srv:1;
  Alcotest.(check int) "stale probe self-evicts" (-2)
    (Obj_cache.probe c ~h:0 ~key:1);
  Alcotest.(check bool) "freed way accepts the hint" true
    (Obj_cache.import_hint c ~h:0 ~key:3 ~server:3 ~epoch:ep3)

let test_hint_staleness_self_evicts () =
  let c = mk ~ways:2 ~nodes:2 () in
  let ep = Obj_cache.epoch_of c ~key:7 ~srv:4 in
  Alcotest.(check bool) "hint lands" true
    (Obj_cache.import_hint c ~h:1 ~key:7 ~server:4 ~epoch:ep);
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
  fill c ~h:0 ~key ~server:1;
  ignore (Obj_cache.probe c ~h:0 ~key : int);
  ignore
    (Obj_cache.import_hint c ~h:1 ~key:5 ~server:2
       ~epoch:(Obj_cache.epoch_of c ~key:5 ~srv:2)
      : bool);
  Obj_cache.bump_epoch c ~key ~srv:9;
  Obj_cache.reset c;
  Alcotest.(check int) "no entries survive reset" 0 (Obj_cache.entries c);
  Alcotest.(check int) "probe misses" (-1) (Obj_cache.probe c ~h:0 ~key);
  Alcotest.(check int) "hint gone" (-1) (Obj_cache.probe c ~h:1 ~key:5);
  Alcotest.(check int) "pair epochs cleared" 0
    (Obj_cache.epoch_of c ~key ~srv:9);
  Alcotest.(check int) "associativity survives" 2 c.Obj_cache.ways;
  Alcotest.(check int) "interning survives" key (Obj_cache.find_key c g)

(* A cache created for a handle count that is not a multiple of 64
   sizes its last segment to it; the first growth past it fills that
   segment out to 64 lines (its one copy), keeps the full segments
   untouched, and keeps every entry and its probe result. *)
let test_segments_grow_without_copy () =
  let c = mk ~ways:2 ~nodes:100 () in
  let lines (g : Obj_cache.segment) = Array.length g.Obj_cache.hand in
  Alcotest.(check (list int)) "a full and a partial segment" [ 64; 36 ]
    (List.map lines (Array.to_list c.Obj_cache.segs));
  List.iter (fun h -> fill c ~h ~key:h ~server:(h + 1)) [ 0; 63; 64; 99 ];
  let first = c.Obj_cache.segs.(0) in
  Obj_cache.ensure_nodes c 200;
  Alcotest.(check (list int)) "filled out, then appended" [ 64; 64; 64; 64 ]
    (List.map lines (Array.to_list c.Obj_cache.segs));
  Alcotest.(check bool) "the full segment is kept as it was" true
    (c.Obj_cache.segs.(0) == first);
  List.iter
    (fun h ->
      let i = Obj_cache.probe c ~h ~key:h in
      Alcotest.(check int) "entry kept" (h + 1)
        (if i >= 0 then Obj_cache.probe_srv c i else -1))
    [ 0; 63; 64; 99 ];
  Alcotest.(check int) "new lines empty" (-1) (Obj_cache.probe c ~h:199 ~key:199);
  Alcotest.(check int) "beyond the cover misses" (-1)
    (Obj_cache.probe c ~h:200 ~key:0)

(* A zero-way cache holds nothing: its footprint is the same for 16 and
   for 4096 handles, growth leaves it empty, and every probe misses. *)
let test_zero_ways_hold_nothing () =
  let small = mk ~ways:0 ~nodes:16 () and big = mk ~ways:0 ~nodes:4096 () in
  Alcotest.(check int) "approx_bytes independent of nodes"
    (Obj_cache.approx_bytes small) (Obj_cache.approx_bytes big);
  Alcotest.(check int) "no segment" 0 (Array.length big.Obj_cache.segs);
  Obj_cache.ensure_nodes big 8192;
  Alcotest.(check int) "growth adds none" 0 (Array.length big.Obj_cache.segs);
  Alcotest.(check int) "still as small" (Obj_cache.approx_bytes small)
    (Obj_cache.approx_bytes big);
  fill big ~h:7 ~key:0 ~server:1;
  Alcotest.(check int) "every probe misses" (-1) (Obj_cache.probe big ~h:7 ~key:0);
  Alcotest.(check bool) "no empty way to offer" false
    (Obj_cache.has_empty_way big ~h:7)

(* The way layout: a 64-way cache for 4096 nodes spends at most 19
   bytes per way (key and server packed in one word, the epoch word,
   and a hit-count, flags and doorkeeper byte) plus each line's clock
   hand and doorkeeper counter (2 words) and each segment's record and
   array headers, in the heap and in [approx_bytes]. *)
let test_way_bytes () =
  let ways = 64 and nodes = 4096 in
  let c = mk ~ways ~nodes () in
  let segs = Array.length c.Obj_cache.segs in
  let bound = (19 * ways * nodes) + (16 * nodes) + (256 * segs) + (8 * (segs + 1)) in
  let heap = 8 * Obj.reachable_words (Obj.repr c.Obj_cache.segs) in
  if heap > bound then
    Alcotest.failf "heap: %d B for %d ways, over the %d B bound" heap
      (ways * nodes) bound;
  (* the interning tables and the handle record on top of the lines *)
  let fixed = 8 * 64 in
  let model = Obj_cache.approx_bytes c in
  if model > bound + fixed then
    Alcotest.failf "approx_bytes: %d B for %d ways, over the %d B bound"
      model (ways * nodes) (bound + fixed)

(* ---- a cache attached to a sync mesh ---- *)

let attach_cache net =
  let c = Obj_cache.create ~ways:4 ~nodes:net.Network.arena_len in
  net.Network.obj_cache <- Some c;
  c

let assert_audit_clean what net =
  let report = Audit.run net in
  if not (Audit.is_clean report) then
    Alcotest.failf "%s not audit-clean: %s" what
      (Format.asprintf "%a" Audit.pp_report report)

(* Retracting one replica of two through the sync [Publish.unpublish]
   bumps that (object, server) pair's epoch only: entries naming the
   retracted server go stale and self-evict on their next probe, entries
   naming the surviving server stay valid. *)
let test_sync_partial_unpublish () =
  let net = build ~n:150 ~seed:23 () in
  let c = attach_cache net in
  let s1 = Network.random_alive net in
  let s2 = Network.random_alive net in
  if Node_id.equal s1.Node.id s2.Node.id then
    Alcotest.fail "test needs two distinct servers (reseed)";
  let guid = random_guid net in
  ignore (Publish.publish net ~server:s1 guid : Publish.outcome);
  ignore (Publish.publish net ~server:s2 guid : Publish.outcome);
  let key = Obj_cache.intern c guid in
  (* even handles name s1, odd handles s2 *)
  let names_s1 h = h mod 2 = 0 in
  Network.iter_alive net (fun n ->
      let h = n.Node.handle in
      fill c ~h ~key
        ~server:(if names_s1 h then s1.Node.handle else s2.Node.handle));
  assert_audit_clean "planted mesh" net;
  Publish.unpublish net ~server:s1 guid;
  Network.iter_alive net (fun n ->
      let h = n.Node.handle in
      if names_s1 h then
        Alcotest.(check int) "entry naming s1 is stale" (-2)
          (Obj_cache.probe c ~h ~key)
      else begin
        let i = Obj_cache.probe c ~h ~key in
        Alcotest.(check bool) "entry naming s2 still hits" true (i >= 0);
        Alcotest.(check int) "and names s2" s2.Node.handle
          (Obj_cache.probe_srv c i)
      end);
  assert_audit_clean "post-unpublish mesh" net

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
  fill c ~h:0 ~key ~server:impostor.Node.handle;
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
          Alcotest.test_case "epoch table matches a map model" `Quick
            test_epoch_table_model;
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
          Alcotest.test_case "segments grow without copying" `Quick
            test_segments_grow_without_copy;
          Alcotest.test_case "zero ways hold nothing" `Quick
            test_zero_ways_hold_nothing;
          Alcotest.test_case "19 bytes per way" `Quick test_way_bytes;
        ] );
      ( "sync",
        [
          Alcotest.test_case
            "partial unpublish keeps surviving-replica shortcuts" `Quick
            test_sync_partial_unpublish;
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
