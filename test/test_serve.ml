(* Serving-runtime tier tests (DESIGN.md section 9):

   - the Zipf sampler's empirical rank frequencies match the harmonic
     weights at 1e5 draws;
   - mailbox ring semantics: bounded overflow, FIFO order through
     msg_index/advance, generation reuse after kill, growth;
   - the serve engine is bit-identical for every domain count (the
     fixed-64-shard argument, mirroring test_scale_build);
   - a churned run quiesces to an audit-clean mesh. *)

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
  let _, r1 = run_serve ~params:coop_params ~domains:1 () in
  let _, r4 = run_serve ~params:coop_params ~domains:4 () in
  Alcotest.(check string) "coop run domain-invariant" (Driver.signature r1)
    (Driver.signature r4);
  let churned =
    { coop_params with Driver.kill_rate = 8.; join_rate = 4. }
  in
  let _, c1 = run_serve ~params:churned ~domains:1 () in
  let _, c5 = run_serve ~params:churned ~domains:5 () in
  Alcotest.(check bool) "churn actually fired" true (c1.Driver.kills > 0);
  Alcotest.(check string) "churned coop run domain-invariant"
    (Driver.signature c1) (Driver.signature c5)

let test_serve_coop_off_identical () =
  (* --coop off must reproduce the plain cached engine byte-exactly:
     same signature regardless of the (inert) hint parameters, and no
     hint fields in it *)
  let _, r_cached = run_serve ~params:cached_params ~domains:2 () in
  let _, r_off =
    run_serve
      ~params:{ cached_params with Driver.hint_k = 3; hint_budget = 1 }
      ~domains:2 ()
  in
  Alcotest.(check string) "coop off ignores hint parameters"
    (Driver.signature r_cached) (Driver.signature r_off);
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
  (* the FETCH-vs-unpublish race recovery retries through the surrogate
     climb once before a request counts failed; pin the counters so a
     regression in the retry path is loud.  The workload leans on
     unpublish to provoke the race *)
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
  Alcotest.(check int) "cached failures pinned" 40 r_cached.Driver.failed;
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
  Alcotest.(check int) "failed pinned" 715 r.Driver.failed;
  Alcotest.(check string) "signature digest pinned"
    "8cc3d2d368690cf5ae09447462a83591"
    (Digest.to_hex (Digest.string (Driver.signature r)))

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
    ]
