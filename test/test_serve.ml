(* Serving-runtime tier tests (DESIGN.md section 9):

   - the Zipf sampler's empirical rank frequencies match the harmonic
     weights at 1e5 draws;
   - mailbox ring semantics: bounded overflow, FIFO order through
     msg_index/advance, generation reuse after kill, growth;
   - the serve engine is bit-identical for every domain count (the
     fixed-64-shard argument, mirroring test_scale_build);
   - a churned run quiesces to an audit-clean mesh;
   - object GUIDs stay distinct when the ID space is small enough for
     draws to repeat;
   - the cache's redirect budget: overflow relief without coop, at most
     rc_max + 1 recoveries per request, and cache 0 leaving the
     uncached engine's signature untouched. *)

open Tapestry
module Rng = Simnet.Rng
module Workload = Evaluation.Workload
module Mailbox = Serve.Mailbox
module Driver = Serve.Driver

(* ---- Zipf sampler ---- *)

let test_zipf_range () =
  let n = 37 in
  let z = Workload.zipf ~s:1.1 ~n in
  let rng = Rng.create 5 in
  for _ = 1 to 10_000 do
    let r = Workload.zipf_sample z rng in
    if r < 0 || r >= n then
      Alcotest.failf "zipf_sample out of range: %d (n=%d)" r n
  done

let test_zipf_frequencies () =
  let n = 50 and s = 0.9 and draws = 100_000 in
  let z = Workload.zipf ~s ~n in
  let rng = Rng.create 42 in
  let counts = Array.make n 0 in
  for _ = 1 to draws do
    let r = Workload.zipf_sample z rng in
    counts.(r) <- counts.(r) + 1
  done;
  (* expected weights: (i+1)^-s / H *)
  let w = Array.init n (fun i -> (float_of_int (i + 1)) ** -.s) in
  let h = Array.fold_left ( +. ) 0. w in
  let fd = float_of_int draws in
  Array.iteri
    (fun i wi ->
      let expected = wi /. h *. fd in
      let got = float_of_int counts.(i) in
      (* 5-sigma binomial band, plus a floor for the sparse tail *)
      let sigma = sqrt (expected *. (1. -. (wi /. h))) in
      let band = Float.max (5. *. sigma) 25. in
      if Float.abs (got -. expected) > band then
        Alcotest.failf "rank %d: got %.0f draws, expected %.1f +/- %.1f" i
          got expected band)
    w;
  (* and the rank-frequency slope really is Zipf-ish: the head must
     dominate the tail by about (n)^s *)
  let ratio = float_of_int counts.(0) /. float_of_int (max 1 counts.(n - 1)) in
  let ideal = float_of_int n ** s in
  Alcotest.(check bool)
    (Printf.sprintf "head/tail ratio %.1f within 2x of %.1f" ratio ideal)
    true
    (ratio > ideal /. 2. && ratio < ideal *. 2.)

let test_zipf_deterministic () =
  let draw seed =
    let z = Workload.zipf ~s:0.9 ~n:100 in
    let rng = Rng.create seed in
    List.init 1000 (fun _ -> Workload.zipf_sample z rng)
  in
  Alcotest.(check (list int)) "same seed, same stream" (draw 9) (draw 9)

(* ---- mailbox rings ---- *)

let push_req mb h req =
  Mailbox.push mb h ~kind:0 ~req ~oi:0 ~level:0 ~prev:(-1) ~src:0

let test_mailbox_bounded_fifo () =
  let cap = 4 in
  let mb = Mailbox.create ~cap ~handles:2 in
  for r = 0 to cap - 1 do
    Alcotest.(check bool) "push accepted" true (push_req mb 1 (100 + r))
  done;
  Alcotest.(check bool) "overflow rejected" false (push_req mb 1 999);
  Alcotest.(check int) "full" cap (Mailbox.length mb 1);
  (* FIFO order through msg_index/advance, wrapping across the ring *)
  for r = 0 to cap - 1 do
    let i = Mailbox.msg_index mb 1 in
    Alcotest.(check int) "fifo order" (100 + r) mb.Mailbox.r_req.(i);
    Mailbox.advance mb 1;
    (* interleave a push so head wraps past the ring boundary *)
    if r < 2 then
      Alcotest.(check bool) "refill accepted" true (push_req mb 1 (200 + r))
  done;
  Alcotest.(check int) "wrapped refills" 200 mb.Mailbox.r_req.(Mailbox.msg_index mb 1);
  Mailbox.advance mb 1;
  Alcotest.(check int) "wrapped refills" 201 mb.Mailbox.r_req.(Mailbox.msg_index mb 1);
  Mailbox.advance mb 1;
  Alcotest.(check int) "drained" 0 (Mailbox.length mb 1);
  (* handle 0 was never touched *)
  Alcotest.(check int) "other ring untouched" 0 (Mailbox.length mb 0)

let test_mailbox_generation () =
  let mb = Mailbox.create ~cap:4 ~handles:3 in
  let g0 = Mailbox.generation mb 2 in
  ignore (push_req mb 2 7 : bool);
  Mailbox.set_busy mb 2 true;
  Alcotest.(check bool) "busy" true (Mailbox.is_busy mb 2);
  Mailbox.kill mb 2;
  Alcotest.(check int) "ring cleared" 0 (Mailbox.length mb 2);
  Alcotest.(check bool) "busy reset" false (Mailbox.is_busy mb 2);
  Alcotest.(check bool) "generation bumped" true (Mailbox.generation mb 2 > g0);
  (* the slot is reusable by a churn join under the new generation *)
  Alcotest.(check bool) "reuse accepted" true (push_req mb 2 8);
  Alcotest.(check int) "reused head" 8 mb.Mailbox.r_req.(Mailbox.msg_index mb 2)

let test_mailbox_growth () =
  let mb = Mailbox.create ~cap:4 ~handles:2 in
  ignore (push_req mb 0 1 : bool);
  ignore (push_req mb 1 2 : bool);
  let g1 = Mailbox.generation mb 1 in
  Mailbox.ensure mb ~handles:50;
  Alcotest.(check bool) "grew" true (mb.Mailbox.handles >= 50);
  Alcotest.(check int) "contents preserved (h0)" 1
    mb.Mailbox.r_req.(Mailbox.msg_index mb 0);
  Alcotest.(check int) "contents preserved (h1)" 2
    mb.Mailbox.r_req.(Mailbox.msg_index mb 1);
  Alcotest.(check int) "generation preserved" g1 (Mailbox.generation mb 1);
  Alcotest.(check int) "new ring empty" 0 (Mailbox.length mb 49);
  Alcotest.(check bool) "new ring usable" true (push_req mb 49 3)

(* ---- serve engine ---- *)

(* Driver.run mutates the mesh (pointers, replicas, churn), so every run
   gets a freshly built, identically seeded network. *)
let build_net n seed =
  let rng = Rng.create seed in
  let metric = Simnet.Topology.generate Simnet.Topology.Uniform_square ~n ~rng in
  let net, _stats = Static_build.build_streamed ~seed:(seed + 1) Config.default metric ~n in
  net

let fake_clock () =
  let c = ref 0. in
  fun () ->
    c := !c +. 1.;
    !c

let serve_params =
  {
    Driver.default with
    Driver.requests = 4_000;
    rate = 40_000.;
    objects = 200;
    window = 0.02;
  }

let run_serve ?(params = serve_params) ~domains () =
  let net = build_net 256 42 in
  let r = Driver.run ~net { params with Driver.domains } ~now:(fake_clock ()) in
  (net, r)

let test_serve_determinism () =
  let _, r1 = run_serve ~domains:1 () in
  let _, r3 = run_serve ~domains:3 () in
  let _, r4 = run_serve ~domains:4 () in
  let _, r0 = run_serve ~domains:0 () in
  Alcotest.(check bool) "requests completed" true (r1.Driver.completed > 0);
  let s1 = Driver.signature r1 in
  Alcotest.(check string) "1 domain = 3 domains" s1 (Driver.signature r3);
  Alcotest.(check string) "1 domain = 4 domains" s1 (Driver.signature r4);
  Alcotest.(check string) "1 domain = auto domains" s1 (Driver.signature r0)

let test_serve_accounting () =
  let _, r = run_serve ~domains:2 () in
  Alcotest.(check int) "every request injected" serve_params.Driver.requests
    r.Driver.injected;
  (* [failed] is the terminal counter: it already covers requests that
     ended by drop or dead letter (those message counters may also tick
     for fire-and-forget chains), so completion + failure is exhaustive *)
  Alcotest.(check int) "every request resolved"
    r.Driver.injected
    (r.Driver.completed + r.Driver.failed);
  Alcotest.(check bool) "messages flowed" true
    (r.Driver.delivered >= r.Driver.injected)

let test_serve_streamed_build_signature () =
  (* the serve CLI builds its mesh with [Static_build.build_streamed]
     (a ~4x cheaper setup at n=65536 than the incremental path it
     replaced); the driver is a pure function of the mesh, and
     test_scale_build proves the two builders emit bit-identical
     meshes — assert the end-to-end consequence here: the serve run
     signature is unchanged by the builder swap *)
  let n = 256 and seed = 42 in
  let streamed_net = build_net n seed in
  let incremental_net =
    let rng = Rng.create seed in
    let metric =
      Simnet.Topology.generate Simnet.Topology.Uniform_square ~n ~rng
    in
    let net, _reports =
      Insert.build_incremental ~seed:(seed + 1) Config.default metric
        ~addrs:(List.init n Fun.id)
    in
    net
  in
  let run net =
    Driver.run ~net { serve_params with Driver.domains = 2 }
      ~now:(fake_clock ())
  in
  Alcotest.(check string) "signature unchanged by streamed build"
    (Driver.signature (run incremental_net))
    (Driver.signature (run streamed_net))

let test_serve_churn_audit_clean () =
  let params =
    { serve_params with Driver.kill_rate = 8.; join_rate = 4. }
  in
  let net, r = run_serve ~params ~domains:3 () in
  Alcotest.(check bool) "churn actually fired" true (r.Driver.kills > 0);
  Serve.Shard.quiesce r.Driver.engine ~clock:(r.Driver.duration_v +. 1.);
  let report = Audit.run net in
  if not (Audit.is_clean report) then
    Alcotest.failf "churned serve mesh not audit-clean: %s"
      (Format.asprintf "%a" Audit.pp_report report)

let test_serve_churn_determinism () =
  let params =
    { serve_params with Driver.kill_rate = 8.; join_rate = 4. }
  in
  let _, r1 = run_serve ~params ~domains:1 () in
  let _, r5 = run_serve ~params ~domains:5 () in
  Alcotest.(check string) "churned run domain-invariant"
    (Driver.signature r1) (Driver.signature r5)

(* ---- serve engine + object cache (PR 9) ---- *)

let cached_params = { serve_params with Driver.cache_size = 8 }

let test_serve_cache_determinism () =
  (* the shard-confinement argument must hold with the cache attached:
     probes/fills/evicts/epoch bumps are all either owner-shard or
     barrier-sequential, so signatures stay domain-invariant — also
     under churn, which adds generation bumps and dead-server entries *)
  let _, r1 = run_serve ~params:cached_params ~domains:1 () in
  let _, r4 = run_serve ~params:cached_params ~domains:4 () in
  Alcotest.(check string) "cache-on run domain-invariant"
    (Driver.signature r1) (Driver.signature r4);
  let churned =
    { cached_params with Driver.kill_rate = 8.; join_rate = 4. }
  in
  let _, c1 = run_serve ~params:churned ~domains:1 () in
  let _, c5 = run_serve ~params:churned ~domains:5 () in
  Alcotest.(check bool) "churn actually fired" true (c1.Driver.kills > 0);
  Alcotest.(check string) "churned cache-on run domain-invariant"
    (Driver.signature c1) (Driver.signature c5)

let test_serve_cache_off_identical () =
  (* cache_size = 0 must reproduce the uncached engine bit-exactly: no
     cache suffix in the signature, identical counters *)
  let _, r_off = run_serve ~params:serve_params ~domains:2 () in
  let _, r_zero =
    run_serve ~params:{ serve_params with Driver.cache_size = 0 } ~domains:2 ()
  in
  Alcotest.(check string) "cache 0 = uncached signature"
    (Driver.signature r_off) (Driver.signature r_zero);
  let s = Driver.signature r_off in
  let rec has_cache_field i =
    i + 3 <= String.length s
    && (String.sub s i 3 = "ch=" || has_cache_field (i + 1))
  in
  Alcotest.(check bool) "no cache fields leak into the signature" false
    (has_cache_field 0)

let test_serve_cache_helps () =
  (* the cache must not make service worse: fewer failures (redirect
     recovery re-climbs past unpublish races the uncached walk loses)
     and a strictly smaller delivered-message volume.  mailbox_cap is
     raised because at this tiny scale the cache's direct FETCHes
     concentrate on the few hot servers and a 64-deep ring drops the
     overflow, which would conflate backpressure with correctness *)
  let params = { serve_params with Driver.mailbox_cap = 1024 } in
  let _, r_off = run_serve ~params ~domains:3 () in
  let _, r_on =
    run_serve ~params:{ params with Driver.cache_size = 8 } ~domains:3 ()
  in
  Alcotest.(check int) "all requests injected" r_off.Driver.injected
    r_on.Driver.injected;
  Alcotest.(check bool) "cache never adds failures" true
    (r_on.Driver.failed <= r_off.Driver.failed);
  Alcotest.(check bool) "recovery actually fired" true
    (r_on.Driver.tally.Simnet.Stats.Tally.recoveries > 0);
  Alcotest.(check bool) "cache cuts delivered messages" true
    (r_on.Driver.delivered < r_off.Driver.delivered)

let test_serve_cache_churn_audit_clean () =
  let params =
    { cached_params with Driver.kill_rate = 8.; join_rate = 4. }
  in
  let net, r = run_serve ~params ~domains:3 () in
  Alcotest.(check bool) "churn actually fired" true (r.Driver.kills > 0);
  Serve.Shard.quiesce r.Driver.engine ~clock:(r.Driver.duration_v +. 1.);
  let report = Audit.run net in
  if not (Audit.is_clean report) then
    Alcotest.failf
      "churned cache-on serve mesh not audit-clean (incl. coherence): %s"
      (Format.asprintf "%a" Audit.pp_report report)

(* ---- serve engine + cooperative hint exchange (PR 10) ---- *)

let coop_params = { cached_params with Driver.coop = true }

let test_serve_coop_determinism () =
  (* hint logging is shard-confined (digests, deduped wants) and hint
     application is barrier-sequential in shard order, so cooperative
     signatures must stay domain-invariant — also under churn *)
  let sig_at params domains =
    Driver.signature (snd (run_serve ~params ~domains ()))
  in
  let s1 = sig_at coop_params 1 in
  List.iter
    (fun d ->
      Alcotest.(check string)
        (Printf.sprintf "coop run: 1 domain = %d domains" d)
        s1 (sig_at coop_params d))
    [ 0; 2; 3; 4 ];
  let churned =
    { coop_params with Driver.kill_rate = 8.; join_rate = 4. }
  in
  let _, c1 = run_serve ~params:churned ~domains:1 () in
  Alcotest.(check bool) "churn actually fired" true (c1.Driver.kills > 0);
  List.iter
    (fun d ->
      Alcotest.(check string)
        (Printf.sprintf "churned coop run: 1 domain = %d domains" d)
        (Driver.signature c1) (sig_at churned d))
    [ 0; 2; 5 ]

let test_serve_coop_off_identical () =
  (* --coop off is the plain cached engine: no hint moves, so no hint
     fields in the signature; and coop without a cache is forced off,
     reproducing the uncached engine byte-exactly *)
  let _, r_cached = run_serve ~params:cached_params ~domains:2 () in
  let _, r_plain = run_serve ~params:serve_params ~domains:2 () in
  let _, r_nocache =
    run_serve ~params:{ serve_params with Driver.coop = true } ~domains:2 ()
  in
  Alcotest.(check string) "coop without a cache is forced off"
    (Driver.signature r_plain) (Driver.signature r_nocache);
  let s = Driver.signature r_cached in
  let rec has_sub sub i =
    i + String.length sub <= String.length s
    && (String.sub s i (String.length sub) = sub || has_sub sub (i + 1))
  in
  Alcotest.(check bool) "no hint fields leak into the signature" false
    (has_sub "hf=" 0);
  (* sanity: the flag is not dead — coop on diverges *)
  let _, r_on = run_serve ~params:coop_params ~domains:2 () in
  Alcotest.(check bool) "coop on actually changes the run" true
    (Driver.signature r_on <> s)

let test_serve_coop_helps () =
  let base = { serve_params with Driver.mailbox_cap = 1024 } in
  let cached = { base with Driver.cache_size = 8 } in
  let coop = { cached with Driver.coop = true } in
  let _, r_cached = run_serve ~params:cached ~domains:3 () in
  let _, r_coop = run_serve ~params:coop ~domains:3 () in
  let tl = r_coop.Driver.tally in
  Alcotest.(check bool) "hints travelled" true
    (tl.Simnet.Stats.Tally.hint_fills > 0);
  Alcotest.(check bool) "hints served traffic" true
    (tl.Simnet.Stats.Tally.hint_hits > 0);
  Alcotest.(check bool) "cooperation never adds failures" true
    (r_coop.Driver.failed <= r_cached.Driver.failed);
  Alcotest.(check bool) "cooperation cuts delivered messages" true
    (r_coop.Driver.delivered <= r_cached.Driver.delivered)

let test_serve_coop_retry_regression () =
  (* the FETCH-vs-unpublish race recovery spends the redirect budget
     before a request counts failed; pin the counters so a regression
     in the retry path is loud.  The workload leans on unpublish to
     provoke the race *)
  let params =
    {
      coop_params with
      Driver.requests = 6_000;
      p_publish = 0.10;
      p_unpublish = 0.06;
      mailbox_cap = 1024;
    }
  in
  let _, r_coop = run_serve ~params ~domains:2 () in
  let _, r_cached =
    run_serve ~params:{ params with Driver.coop = false } ~domains:2 ()
  in
  Alcotest.(check bool) "retry never fails more than the cached engine"
    true
    (r_coop.Driver.failed <= r_cached.Driver.failed);
  Alcotest.(check int) "cached failures pinned" 18 r_cached.Driver.failed;
  Alcotest.(check int) "cooperative failures pinned" 18 r_coop.Driver.failed

let test_serve_coop_churn_audit_clean () =
  let params =
    { coop_params with Driver.kill_rate = 8.; join_rate = 4. }
  in
  let net, r = run_serve ~params ~domains:3 () in
  Alcotest.(check bool) "churn actually fired" true (r.Driver.kills > 0);
  Serve.Shard.quiesce r.Driver.engine ~clock:(r.Driver.duration_v +. 1.);
  let report = Audit.run net in
  if not (Audit.is_clean report) then
    Alcotest.failf
      "churned coop serve mesh not audit-clean (incl. hint coherence): %s"
      (Format.asprintf "%a" Audit.pp_report report)

(* ---- object GUIDs ---- *)

(* With 16^3 IDs, 64 nodes and 1500 objects, [Network.fresh_id] repeats
   earlier objects' GUIDs many times over; two objects sharing a GUID
   share a cache key, and the audit then trips over a key past
   [Obj_cache.keys]. *)
let test_guids_distinct_small_space () =
  let cfg = { Config.default with Config.id_digits = 3 } in
  let n = 64 and seed = 5 in
  let rng = Rng.create seed in
  let metric =
    Simnet.Topology.generate Simnet.Topology.Uniform_square ~n ~rng
  in
  let net, _ = Static_build.build_streamed ~seed:(seed + 1) cfg metric ~n in
  let objects = 1500 in
  let params =
    { cached_params with Driver.objects; requests = 2_000; coop = true }
  in
  let r =
    Driver.run ~net { params with Driver.domains = 2 } ~now:(fake_clock ())
  in
  let guids = r.Driver.engine.Serve.Shard.sh.Serve.Actor.guids in
  let seen = Node_id.Tbl.create objects in
  Array.iter
    (fun g ->
      if Node_id.Tbl.mem seen g then Alcotest.fail "two objects share a GUID";
      if Network.find net g <> None then
        Alcotest.fail "an object GUID is a node ID";
      Node_id.Tbl.add seen g ())
    guids;
  (match net.Network.obj_cache with
  | Some c ->
      Alcotest.(check int) "one cache key per object" objects c.Obj_cache.keys
  | None -> Alcotest.fail "cache not attached");
  Serve.Shard.quiesce r.Driver.engine ~clock:(r.Driver.duration_v +. 1.);
  let report = Audit.run net in
  if not (Audit.is_clean report) then
    Alcotest.failf "small-ID-space serve mesh not audit-clean: %s"
      (Format.asprintf "%a" Audit.pp_report report)

(* ---- redirect budget ---- *)

let sum_recoveries (t : Serve.Shard.t) =
  Array.fold_left
    (fun acc (ctx : Serve.Actor.ctx) ->
      acc + ctx.Serve.Actor.tally.Simnet.Stats.Tally.recoveries)
    0 t.Serve.Shard.ctxs

let test_overflow_relief_without_coop () =
  (* no unpublish and no churn, so no FETCH can find its replica gone:
     every recovery is a cache-hit FETCH that overflowed a 2-deep
     mailbox and re-climbed from the entry's holder instead of being
     dropped *)
  let params =
    {
      cached_params with
      Driver.p_publish = 0.05;
      p_unpublish = 0.;
      mailbox_cap = 2;
    }
  in
  let _, r = run_serve ~params ~domains:2 () in
  let tl = r.Driver.tally in
  Alcotest.(check bool) "cache hits happened" true
    (tl.Simnet.Stats.Tally.hits > 0);
  Alcotest.(check bool) "overflowed FETCHes re-climbed" true
    (tl.Simnet.Stats.Tally.recoveries > 0);
  Alcotest.(check int) "no hints without coop" 0
    tl.Simnet.Stats.Tally.hint_fills;
  Alcotest.(check int) "every request resolved" r.Driver.injected
    (r.Driver.completed + r.Driver.failed);
  Alcotest.(check bool) "recoveries bounded by the budget" true
    (tl.Simnet.Stats.Tally.recoveries
    <= (Serve.Actor.rc_max + 1) * r.Driver.injected)

let test_redirect_budget_bounded () =
  (* every recovery is poisoned: each node's cache names a live server
     that no longer holds the object, and the pointers along that
     server's publish path outlive the replica, so every FETCH of the
     one request finds the replica gone — through the cached climbs
     (rc < rc_max) and the cache-free ones alike *)
  let net = build_net 256 42 in
  let roots = net.Network.config.Config.root_set_size in
  let g = Network.fresh_id net in
  let guids = Array.init roots (fun r -> Network.salted net g r) in
  let liar = Network.random_alive net in
  ignore (Publish.publish net ~server:liar guids.(0) : Publish.outcome);
  Node.remove_replica liar guids.(0);
  let c = Obj_cache.create ~ways:4 ~nodes:net.Network.arena_len in
  let key = Obj_cache.intern c guids.(0) in
  let t =
    Serve.Shard.create ~net ~guids ~roots ~ttl:1e6 ~latency:1e-5
      ~service:1e-4 ~requests:1 ~mailbox_cap:64 ~seed:1 ~window:0.02
      ~cache:(Some c) ~coop:false
  in
  let mb = t.Serve.Shard.sh.Serve.Actor.mb in
  let liar_h = liar.Node.handle in
  Network.iter_alive net (fun n ->
      Obj_cache.insert c ~h:n.Node.handle ~key ~server:liar_h
        ~gen:(Mailbox.generation mb liar_h));
  let rec pick () =
    let n = Network.random_alive net in
    if n.Node.handle = liar_h then pick () else n
  in
  let client = (pick ()).Node.handle in
  let ctx = t.Serve.Shard.ctxs.(Serve.Shard.shard_of client) in
  Serve.Actor.send ctx ~time:0. ~h:client ~kind:Serve.Actor.op_locate ~req:0
    ~oi:0 ~level:0 ~prev:(-1) ~src:client;
  Serve.Shard.run t ~domains:1 ~now:(fun () -> 0.) ~on_barrier:(fun _ _ -> ());
  Alcotest.(check int) "recovers exactly rc_max + 1 times"
    (Serve.Actor.rc_max + 1) (sum_recoveries t);
  Alcotest.(check char) "then fails" Serve.Actor.st_failed
    (Bytes.get t.Serve.Shard.sh.Serve.Actor.req_status 0)

let test_cache_zero_signature_pinned () =
  (* with no cache attached nothing recovers, so the uncached engine's
     signature stays byte-identical to the engine before the redirect
     budget was merged (digests pinned there), churn included *)
  let digest params =
    let _, r = run_serve ~params ~domains:2 () in
    Digest.to_hex (Digest.string (Driver.signature r))
  in
  Alcotest.(check string) "uncached signature pinned"
    "319657aaa275db8a485613e579c7e720" (digest serve_params);
  Alcotest.(check string) "cache 0 signature pinned"
    "319657aaa275db8a485613e579c7e720"
    (digest { serve_params with Driver.cache_size = 0 });
  Alcotest.(check string) "churned uncached signature pinned"
    "8f2b071ff51e46ffa42fd074a26e7e3b"
    (digest { serve_params with Driver.kill_rate = 8.; join_rate = 4. })

(* A pinned fingerprint of a churned run shaped like the benchmark's
   serve-cold-churn workload: uniform popularity, 30%/10% writes, a
   64-way cache with cooperative hints, and kills plus joins.  Every join
   runs the full nearest-neighbour descent against a mesh holding dead
   nodes, so a change to what a join builds -- slot order, backpointer
   sets, message charges, the RNG draw sequence -- moves the signature
   or the failed count.  Local speed-ups of the join path must leave
   both untouched; re-pin only for a change meant to alter behaviour. *)
let test_serve_cold_churn_pinned () =
  let params =
    {
      serve_params with
      Driver.requests = 8_000;
      objects = 4_000;
      zipf_s = 0.;
      p_publish = 0.3;
      p_unpublish = 0.1;
      kill_rate = 150.;
      join_rate = 150.;
      cache_size = 64;
      coop = true;
    }
  in
  let _, r = run_serve ~params ~domains:1 () in
  Alcotest.(check bool) "kills fired" true (r.Driver.kills >= 20);
  Alcotest.(check bool) "joins fired" true (r.Driver.joins >= 20);
  Alcotest.(check int) "failed pinned" 716 r.Driver.failed;
  Alcotest.(check string) "signature digest pinned"
    "94f926774d9ceb077a0f349e39557fad"
    (Digest.to_hex (Digest.string (Driver.signature r)))

(* ---- timer heap: the engine's event order ---- *)

module Timer = Serve.Mailbox.Timer
module Fiber = Simnet.Fiber

(* Times come from a coarse grid so equal times, and their push-order
   tie-break, are common. *)
let grid i = 0.25 *. float_of_int i

(* Pushes and pops in any interleaving: the timer pops in the order the
   generic stable [Simnet.Heap] does. *)
let prop_timer_matches_heap =
  QCheck.Test.make ~count:300 ~name:"timer pops in Simnet.Heap order"
    QCheck.(make Gen.(list_size (int_range 0 80) (option (int_bound 12))))
    (fun ops ->
      let tm = Timer.create () in
      let heap = Simnet.Heap.create ~cmp:Float.compare in
      let next = ref 0 and clock = ref 0. in
      List.for_all
        (function
          | Some i ->
              Timer.push tm ~time:(grid i) ~kind:0 ~h:!next ~g:0;
              Simnet.Heap.push heap (grid i) !next;
              incr next;
              true
          | None -> (
              match Simnet.Heap.pop heap with
              | None -> not (Timer.pop_into tm)
              | Some (time, id) ->
                  clock := Float.max !clock time;
                  Timer.pop_into tm
                  && tm.Timer.o_h = id
                  && Float.equal tm.Timer.clock !clock))
        ops
      && Timer.length tm = Simnet.Heap.length heap)

(* Random programs of pushes and [run_until] calls, where every event
   pushes follow-up events while it runs: [Actor.run_until] over the
   timer runs the same events in the same order as [Fiber.run_until]
   and leaves the same clock after every call.  A push at time [t]
   lands at [max t clock], as [Fiber.spawn_at] places it. *)
type timer_op =
  | Push of int * int list  (* grid time, follow-up gaps in grid steps *)
  | Run_until of int  (* grid limit *)

let timer_op_gen =
  QCheck.Gen.(
    frequency
      [
        (3, map2 (fun i ks -> Push (i, ks)) (int_bound 12)
              (list_size (int_bound 2) (int_bound 2)));
        (1, map (fun i -> Run_until i) (int_bound 14));
      ])

let prop_timer_matches_fiber =
  let ctx =
    let t =
      Serve.Shard.create ~net:(build_net 16 3) ~guids:[||] ~roots:1 ~ttl:1.
        ~latency:1e-5 ~service:1e-4 ~requests:1 ~mailbox_cap:4 ~seed:1
        ~window:0.02 ~cache:None ~coop:false
    in
    t.Serve.Shard.ctxs.(0)
  in
  QCheck.Test.make ~count:300 ~name:"run_until matches Simnet.Fiber"
    QCheck.(make Gen.(list_size (int_range 0 40) timer_op_gen))
    (fun ops ->
      let ops = Array.of_list ops in
      (* event ids: 3 * op index for a push, + 1 + j for its j-th
         follow-up *)
      let gaps id =
        match ops.(id / 3) with Push (_, ks) -> ks | Run_until _ -> []
      in
      let sched = Fiber.create () in
      let fiber_log = ref [] in
      let rec fiber_event id () =
        fiber_log := id :: !fiber_log;
        if id mod 3 = 0 then
          List.iteri
            (fun j k ->
              Fiber.spawn_at sched (Fiber.now sched +. grid k)
                (fiber_event (id + 1 + j)))
            (gaps id)
      in
      let tm = Timer.create () in
      let push time id =
        let c = tm.Timer.clock in
        Timer.push tm ~time:(Float.max time c) ~kind:Serve.Actor.ev_inject
          ~h:id ~g:0
      in
      let timer_log = ref [] in
      let ctx = { ctx with Serve.Actor.tm } in
      ctx.Serve.Actor.inject <-
        (fun ctx ->
          let id = ctx.Serve.Actor.tm.Timer.o_h in
          timer_log := id :: !timer_log;
          if id mod 3 = 0 then
            List.iteri
              (fun j k -> push (tm.Timer.clock +. grid k) (id + 1 + j))
              (gaps id));
      let same_clock () = Float.equal (Fiber.now sched) tm.Timer.clock in
      let ok =
        Array.to_list ops
        |> List.mapi (fun i op -> (i, op))
        |> List.for_all (fun (i, op) ->
               match op with
               | Push (t, _) ->
                   Fiber.spawn_at sched (grid t) (fiber_event (3 * i));
                   push (grid t) (3 * i);
                   true
               | Run_until l ->
                   Fiber.run_until sched (grid l);
                   Serve.Actor.run_until ctx (grid l);
                   same_clock ())
      in
      Fiber.run_until sched 100.;
      Serve.Actor.run_until ctx 100.;
      ok && same_clock () && List.equal Int.equal !fiber_log !timer_log)

(* ---- allocation in the measured phase ---- *)

(* Minor words per delivered message from the engine's first wall stamp
   to the driver's return ([now]'s second and last calls), at n=1024 in
   the benchmark's two shapes.  The timer-driven engine reads 49.9
   (hot) and 59.9 (cold churn); the fiber engine before it read 109.7
   and 116.5, with a continuation, a closure and a heap entry per
   drain start, service and injector gap.  The bounds leave about 3
   words of margin, so a closure or boxed event per message coming back
   fails here. *)
let minor_words_per_message params =
  let net = build_net 1024 7 in
  let calls = ref 0 and w_start = ref 0. and w_end = ref 0. in
  let now () =
    incr calls;
    let w = Gc.minor_words () in
    if !calls = 2 then w_start := w;
    w_end := w;
    float_of_int !calls
  in
  let r = Driver.run ~net params ~now in
  (!w_end -. !w_start) /. float_of_int r.Driver.delivered

let alloc_params =
  {
    Driver.default with
    Driver.requests = 20_000;
    objects = 1_000;
    cache_size = 64;
    coop = true;
    domains = 1;
  }

let test_alloc_hot () =
  let w = minor_words_per_message alloc_params in
  if w > 53. then
    Alcotest.failf "hot shape: %.1f minor words per delivered message (bound 53)" w

let test_alloc_cold_churn () =
  let w =
    minor_words_per_message
      {
        alloc_params with
        Driver.objects = 20_000;
        zipf_s = 0.;
        p_publish = 0.3;
        p_unpublish = 0.1;
        kill_rate = 20.;
        join_rate = 20.;
      }
  in
  if w > 63. then
    Alcotest.failf "cold-churn shape: %.1f minor words per delivered message (bound 63)" w

(* ---- wall ledger ---- *)

(* The ledger's phases tile the run.  [now] and [clock] share one
   counter that ticks 1 per reading, so every wall quantity counts
   readings: the phases cover every reading between the driver's first
   and last ledger stamp, and miss exactly four (the two [now] calls
   outside them, and the two hand-offs between the driver's stamps and
   [Shard.run]'s). *)
let test_ledger_tiles_wall () =
  let ticks = ref 0. in
  let tick () =
    ticks := !ticks +. 1.;
    !ticks
  in
  let net = build_net 256 42 in
  let r =
    Driver.run ~clock:tick ~net
      { serve_params with Driver.kill_rate = 8.; join_rate = 4. }
      ~now:tick
  in
  let l = r.Driver.engine.Serve.Shard.ledger in
  let open Serve.Shard in
  let sum =
    l.setup +. l.drain +. l.flush +. l.repair +. l.intents +. l.digest
    +. l.churn +. l.collect
  in
  Alcotest.(check (float 0.)) "phases + 4 readings = wall_s" r.Driver.wall_s
    (sum +. 4.);
  (* every barrier reads the clock once per engine phase and [now] once
     inside the flush phase *)
  let b = float_of_int r.Driver.barriers in
  Alcotest.(check (float 0.)) "flush phase holds the barrier stamps"
    (2. *. b) l.flush;
  Alcotest.(check bool) "every phase read" true
    (List.for_all (fun x -> x > 0.)
       [ l.setup; l.drain; l.repair; l.intents; l.digest; l.churn; l.collect ])

let () =
  Alcotest.run "serve"
    [
      ( "zipf",
        [
          Alcotest.test_case "samples in range" `Quick test_zipf_range;
          Alcotest.test_case "rank frequencies match harmonic weights"
            `Quick test_zipf_frequencies;
          Alcotest.test_case "seeded and deterministic" `Quick
            test_zipf_deterministic;
        ] );
      ( "mailbox",
        [
          Alcotest.test_case "bounded overflow + FIFO via msg_index/advance"
            `Quick test_mailbox_bounded_fifo;
          Alcotest.test_case "kill bumps generation, slot reusable" `Quick
            test_mailbox_generation;
          Alcotest.test_case "ensure-growth preserves contents" `Quick
            test_mailbox_growth;
        ] );
      ( "engine",
        [
          Alcotest.test_case "bit-identical for any domain count" `Quick
            test_serve_determinism;
          Alcotest.test_case "request accounting balances" `Quick
            test_serve_accounting;
          Alcotest.test_case "streamed build leaves run signature unchanged"
            `Quick test_serve_streamed_build_signature;
          Alcotest.test_case "churned run quiesces audit-clean" `Quick
            test_serve_churn_audit_clean;
          Alcotest.test_case "churned run domain-invariant" `Quick
            test_serve_churn_determinism;
          Alcotest.test_case "cold churned run pinned" `Quick
            test_serve_cold_churn_pinned;
        ] );
      ( "cache",
        [
          Alcotest.test_case "cache-on runs domain-invariant (incl. churn)"
            `Quick test_serve_cache_determinism;
          Alcotest.test_case "cache 0 bit-identical to uncached" `Quick
            test_serve_cache_off_identical;
          Alcotest.test_case "cache cuts messages, never adds failures"
            `Quick test_serve_cache_helps;
          Alcotest.test_case
            "churned cache-on run quiesces audit-clean (incl. coherence)"
            `Quick test_serve_cache_churn_audit_clean;
        ] );
      ( "coop",
        [
          Alcotest.test_case "coop runs domain-invariant (incl. churn)"
            `Quick test_serve_coop_determinism;
          Alcotest.test_case "coop off byte-identical to the cached engine"
            `Quick test_serve_coop_off_identical;
          Alcotest.test_case "hints travel, serve traffic, never hurt"
            `Quick test_serve_coop_helps;
          Alcotest.test_case "fetch retry failure counts pinned" `Quick
            test_serve_coop_retry_regression;
          Alcotest.test_case
            "churned coop run quiesces audit-clean (incl. hint coherence)"
            `Quick test_serve_coop_churn_audit_clean;
        ] );
      ( "guids",
        [
          Alcotest.test_case "distinct in a small ID space, audit clean"
            `Quick test_guids_distinct_small_space;
        ] );
      ( "budget",
        [
          Alcotest.test_case "overflow relief re-climbs without coop" `Quick
            test_overflow_relief_without_coop;
          Alcotest.test_case "at most rc_max + 1 recoveries per request"
            `Quick test_redirect_budget_bounded;
          Alcotest.test_case "cache 0 signature pinned" `Quick
            test_cache_zero_signature_pinned;
        ] );
      ( "timer",
        List.map QCheck_alcotest.to_alcotest
          [ prop_timer_matches_heap; prop_timer_matches_fiber ] );
      ( "alloc",
        [
          Alcotest.test_case "hot shape minor words per message" `Quick
            test_alloc_hot;
          Alcotest.test_case "cold-churn shape minor words per message"
            `Quick test_alloc_cold_churn;
        ] );
      ( "ledger",
        [
          Alcotest.test_case "phases tile wall_s" `Quick
            test_ledger_tiles_wall;
        ] );
    ]
