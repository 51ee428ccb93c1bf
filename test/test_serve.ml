(* Serving-runtime tier tests (DESIGN.md section 9):

   - the Zipf sampler's empirical rank frequencies match the harmonic
     weights at 1e5 draws;
   - mailbox semantics: bounded overflow, FIFO order through
     msg_index/advance across pool-slot reuse, kill returning its slots,
     busy exactly while a message is in service, growth, memory
     independent of the bound;
   - Rows logs: push order across growth, swap_remove, mem2, clear, no
     allocation after warm-up;
   - a delivery to an idle actor starts its drain itself, and a
     zero-service run, whose drains run inside deliveries, is pinned;
   - the serve engine is bit-identical for every domain count (the
     fixed-64-shard argument, mirroring test_scale_build);
   - a churned run quiesces to an audit-clean mesh;
   - object GUIDs stay distinct when the ID space is small enough for
     draws to repeat;
   - the redirect budget: overflow relief without coop, at most
     rc_max + 1 recoveries per request, and a FETCH that races an
     unpublish recovering at zero ways as with ways. *)

open Tapestry
module Rng = Simnet.Rng
module Zipf = Simnet.Zipf
module Mailbox = Serve.Mailbox
module Driver = Serve.Driver

(* ---- Zipf sampler ---- *)

let test_zipf_range () =
  let n = 37 in
  let z = Zipf.create ~s:1.1 ~n in
  let rng = Rng.create 5 in
  for _ = 1 to 10_000 do
    let r = Zipf.sample z rng in
    if r < 0 || r >= n then
      Alcotest.failf "zipf_sample out of range: %d (n=%d)" r n
  done

let test_zipf_frequencies () =
  let n = 50 and s = 0.9 and draws = 100_000 in
  let z = Zipf.create ~s ~n in
  let rng = Rng.create 42 in
  let counts = Array.make n 0 in
  for _ = 1 to draws do
    let r = Zipf.sample z rng in
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
    let z = Zipf.create ~s:0.9 ~n:100 in
    let rng = Rng.create seed in
    List.init 1000 (fun _ -> Zipf.sample z rng)
  in
  Alcotest.(check (list int)) "same seed, same stream" (draw 9) (draw 9)

(* ---- mailboxes: FIFO chains through the payload pool ---- *)

let push_req mb h req =
  Mailbox.push mb h ~kind:0 ~req ~oi:0 ~level:0 ~prev:(-1) ~src:0

let head_req mb h = mb.Mailbox.r_req.(Mailbox.msg_index mb h)

let test_mailbox_bounded_fifo () =
  let cap = 4 in
  let mb = Mailbox.create ~cap ~handles:2 in
  for r = 0 to cap - 1 do
    Alcotest.(check bool) "push accepted" true (push_req mb 1 (100 + r))
  done;
  Alcotest.(check bool) "overflow rejected" false (push_req mb 1 999);
  Alcotest.(check int) "full" cap (Mailbox.length mb 1);
  Alcotest.(check int) "overflow takes no slot" cap mb.Mailbox.used;
  (* FIFO order through msg_index/advance; each refill lands in the
     slot the pop before it released, at the tail of the queue *)
  for r = 0 to cap - 1 do
    Alcotest.(check int) "fifo order" (100 + r) (head_req mb 1);
    Mailbox.advance mb 1;
    if r < 2 then
      Alcotest.(check bool) "refill accepted" true (push_req mb 1 (200 + r))
  done;
  Alcotest.(check int) "refills reuse released slots" cap mb.Mailbox.used;
  Alcotest.(check int) "fifo across slot reuse" 200 (head_req mb 1);
  Mailbox.advance mb 1;
  Alcotest.(check int) "fifo across slot reuse" 201 (head_req mb 1);
  Mailbox.advance mb 1;
  Alcotest.(check int) "drained" 0 (Mailbox.length mb 1);
  (* handle 0 was never touched *)
  Alcotest.(check int) "other queue untouched" 0 (Mailbox.length mb 0)

(* Busy means a message is in service: the kill sweeps the queue and
   leaves the in-service slot to its service-done event, which releases
   it and finds the queue empty. *)
let test_mailbox_kill () =
  let mb = Mailbox.create ~cap:4 ~handles:3 in
  ignore (push_req mb 2 5 : bool);
  ignore (push_req mb 2 7 : bool);
  ignore (push_req mb 2 9 : bool);
  Alcotest.(check bool) "idle with a queue" false (Mailbox.is_busy mb 2);
  Alcotest.(check bool) "head taken" true (Mailbox.take mb 2);
  Alcotest.(check bool) "busy in service" true (Mailbox.is_busy mb 2);
  let high_water = mb.Mailbox.used in
  Mailbox.kill mb 2;
  Alcotest.(check int) "queue cleared" 0 (Mailbox.length mb 2);
  Alcotest.(check int) "in-service message kept" 5
    mb.Mailbox.r_req.(Mailbox.in_service mb 2);
  Mailbox.release mb (Mailbox.in_service mb 2);
  Alcotest.(check bool) "empty queue: nothing taken" false (Mailbox.take mb 2);
  Alcotest.(check bool) "idle after service" false (Mailbox.is_busy mb 2);
  (* the pool reuses the slots the kill returned *)
  Alcotest.(check bool) "reuse accepted" true (push_req mb 2 8);
  Alcotest.(check bool) "reuse accepted" true (push_req mb 2 10);
  Alcotest.(check int) "kill returned its slots" high_water mb.Mailbox.used;
  Alcotest.(check int) "reused head" 8 (head_req mb 2)

let test_mailbox_growth () =
  let check_growth mb ~stride =
    let h0 = 0 and h1 = stride and h2 = 2 * stride in
    ignore (push_req mb h0 1 : bool);
    ignore (push_req mb h1 2 : bool);
    ignore (push_req mb h1 3 : bool);
    ignore (push_req mb h2 4 : bool);
    ignore (Mailbox.take mb h2 : bool);
    let served = Mailbox.in_service mb h2 in
    Mailbox.kill mb h1;
    ignore (push_req mb h1 5 : bool);
    Mailbox.ensure mb ~handles:(50 * stride);
    Alcotest.(check bool) "grew" true (mb.Mailbox.cells >= 50);
    Alcotest.(check int) "queue kept (h0)" 1 (head_req mb h0);
    Alcotest.(check int) "queue kept (h1)" 5 (head_req mb h1);
    Alcotest.(check int) "length kept" 1 (Mailbox.length mb h1);
    Alcotest.(check bool) "busy kept" true (Mailbox.is_busy mb h2);
    Alcotest.(check bool) "idle kept" false (Mailbox.is_busy mb h1);
    Alcotest.(check int) "in-service slot kept" served
      (Mailbox.in_service mb h2);
    Alcotest.(check int) "in-service message kept" 4
      mb.Mailbox.r_req.(Mailbox.in_service mb h2);
    let last = 49 * stride in
    Alcotest.(check int) "new queue empty" 0 (Mailbox.length mb last);
    Alcotest.(check bool) "new actor idle" false (Mailbox.is_busy mb last);
    Alcotest.(check bool) "new queue usable" true (push_req mb last 6);
    Alcotest.(check int) "new queue head" 6 (head_req mb last)
  in
  check_growth (Mailbox.create ~cap:4 ~handles:3) ~stride:1;
  (* shard 0's store of a 4-way grid: handles 0, 4, 8, ... *)
  let mb = Mailbox.create_strided ~stride:4 ~cap:4 ~handles:12 in
  Alcotest.(check int) "one cell per owned handle" 3 mb.Mailbox.cells;
  check_growth mb ~stride:4

(* ---- Rows: fixed-width int logs ---- *)

module Rows = Mailbox.Rows

let push_row r w x =
  match w with
  | 1 -> Rows.push1 r x
  | 2 -> Rows.push2 r x (x + 1)
  | 3 -> Rows.push3 r x (x + 1) (x + 2)
  | _ -> Rows.push4 r x (x + 1) (x + 2) (x + 3)

(* Row [i] of a [push_row] log is (10 i, 10 i + 1, ...). *)
let check_rows what r w n =
  Alcotest.(check int) (what ^ ": length") n (Rows.length r);
  for i = 0 to n - 1 do
    for k = 0 to w - 1 do
      Alcotest.(check int)
        (Printf.sprintf "%s: row %d col %d" what i k)
        ((10 * i) + k) (Rows.get r i k)
    done
  done

let test_rows_push_order () =
  (* the first growth holds 16 rows, so 40 rows cross two doublings *)
  for w = 1 to 4 do
    let r = Rows.create ~width:w in
    for i = 0 to 39 do
      push_row r w (10 * i)
    done;
    check_rows (Printf.sprintf "width %d" w) r w 40
  done

let test_rows_swap_remove () =
  let r = Rows.create ~width:3 in
  for i = 0 to 4 do
    push_row r 3 (10 * i)
  done;
  Rows.swap_remove r 1;
  Alcotest.(check int) "one row fewer" 4 (Rows.length r);
  Alcotest.(check (list int)) "last row moved into the gap" [ 40; 41; 42 ]
    (List.init 3 (Rows.get r 1));
  Alcotest.(check (list int)) "other rows kept" [ 0; 20; 30 ]
    [ Rows.get r 0 0; Rows.get r 2 0; Rows.get r 3 0 ];
  Rows.swap_remove r 3;
  Alcotest.(check int) "removing the last row" 3 (Rows.length r);
  Alcotest.(check int) "row before it kept" 20 (Rows.get r 2 0)

let test_rows_mem2_clear () =
  let r = Rows.create ~width:3 in
  Alcotest.(check bool) "empty log holds nothing" false (Rows.mem2 r 0 1);
  push_row r 3 10;
  push_row r 3 20;
  Alcotest.(check bool) "first two columns match" true (Rows.mem2 r 20 21);
  Alcotest.(check bool) "second column differs" false (Rows.mem2 r 20 20);
  Alcotest.(check bool) "third column not compared" false (Rows.mem2 r 21 22);
  Rows.clear r;
  Alcotest.(check int) "cleared" 0 (Rows.length r);
  Alcotest.(check bool) "cleared rows are gone" false (Rows.mem2 r 10 11);
  push_row r 3 0;
  check_rows "pushed after clear" r 3 1;
  Alcotest.check_raises "width 0 refused"
    (Invalid_argument "Mailbox.Rows.create: width must be positive") (fun () ->
      ignore (Rows.create ~width:0 : Rows.t))

let test_rows_no_alloc () =
  let logs = Array.init 4 (fun k -> Rows.create ~width:(k + 1)) in
  let fill () =
    Array.iteri
      (fun k r ->
        Rows.clear r;
        for i = 0 to 99 do
          push_row r (k + 1) (10 * i)
        done)
      logs
  in
  fill ();
  let w0 = Gc.minor_words () in
  fill ();
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check (float 0.)) "pushes after warm-up allocate nothing" 0. words;
  Array.iteri (fun k r -> check_rows "refilled" r (k + 1) 100) logs

(* Nothing in a mailbox is sized by [cap]: the pool holds only messages
   in flight or queued, so 4096 handles cost the same at any bound. *)
let test_mailbox_bytes_independent_of_cap () =
  let bytes cap = Mailbox.approx_bytes (Mailbox.create ~cap ~handles:4096) in
  Alcotest.(check int) "cap 64 = cap 4096" (bytes 64) (bytes 4096)

(* ---- serve engine ---- *)

(* Driver.run mutates the mesh (pointers, replicas, churn), so every run
   gets a freshly built, identically seeded network. *)
let build_net ?(config = Config.default) n seed =
  let rng = Rng.create seed in
  let metric = Simnet.Topology.generate Simnet.Topology.Uniform_square ~n ~rng in
  let net, _stats = Static_build.build_streamed ~seed:(seed + 1) config metric ~n in
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

let run_serve ?config ?(params = serve_params) ~domains () =
  let net = build_net ?config 256 42 in
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
  let churned = { serve_params with Driver.kill_rate = 8.; join_rate = 4. } in
  (* two roots: chain 1 of every publish and unpublish carries no
     request, and a mailbox of 8 drops some of its messages *)
  let two_roots = { Config.default with Config.root_set_size = 2 } in
  let chains = { churned with Driver.mailbox_cap = 8 } in
  List.iter
    (fun (what, config, params) ->
      List.iter
        (fun domains ->
          let _, r = run_serve ~config ~params ~domains () in
          let what = Printf.sprintf "%s, %d domains" what domains in
          Alcotest.(check int) (what ^ ": every request injected")
            params.Driver.requests r.Driver.injected;
          (* [failed] is the terminal counter, so completion + failure
             is exhaustive; only request-carrying losses are causes, so
             the four partition it at any root-set size *)
          Alcotest.(check int) (what ^ ": every request resolved")
            r.Driver.injected
            (r.Driver.completed + r.Driver.failed);
          Alcotest.(check int) (what ^ ": causes partition failed")
            r.Driver.failed
            (r.Driver.dropped + r.Driver.dead_letter + r.Driver.exhausted
           + r.Driver.root_miss);
          Alcotest.(check int) (what ^ ": drops by class sum to dropped")
            r.Driver.dropped
            (Array.fold_left ( + ) 0 r.Driver.dropped_by);
          if config.Config.root_set_size = 1 then
            Alcotest.(check int) (what ^ ": one root loses no chain") 0
              r.Driver.chain_lost
          else
            Alcotest.(check bool) (what ^ ": chain messages lost") true
              (r.Driver.chain_lost > 0);
          Alcotest.(check bool) (what ^ ": messages flowed") true
            (r.Driver.delivered >= r.Driver.injected))
        [ 1; 2 ])
    [
      ("unchurned", Config.default, serve_params);
      ("churned", Config.default, churned);
      ("two roots, churned, mailbox 8", two_roots, chains);
    ]

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

(* Churn joins grow the mailboxes' per-handle cells by an eighth, not
   by doubling: after a churned n=256 run, each covers every handle and
   is at most max(needed, 9/8 of a size below needed), and one more
   growth step keeps every queue and in-service slot and
   lands exactly on the larger of +1/8 and what is needed.  The cache
   grows by appending segments of 64 lines: it covers exactly the
   handles needed, in as many segments as they take, and a growth step
   past its last segment appends one segment, leaves every existing
   segment and its arrays physically the same, and keeps every entry. *)
let test_serve_churn_growth () =
  let params =
    { serve_params with Driver.kill_rate = 8.; join_rate = 150.; cache_size = 8 }
  in
  let net, r = run_serve ~params ~domains:2 () in
  let needed = net.Network.arena_len in
  Alcotest.(check bool) "churn joined nodes" true
    (r.Driver.joins > 0 && needed > 256);
  let sh = r.Driver.engine.Serve.Shard.sh in
  let mbs = sh.Serve.Actor.mbs in
  let shards = sh.Serve.Actor.shards in
  let mb_of h = mbs.(h mod shards) in
  let cache = Option.get net.Network.obj_cache in
  let within what size needed =
    let bound = max needed ((needed - 1) + ((needed - 1) / 8)) in
    if size < needed || size > bound then
      Alcotest.failf "%s covers %d: want %d..%d" what size needed bound
  in
  Array.iter
    (fun mb ->
      within "mailbox cells" mb.Mailbox.cells
        ((needed + shards - 1) / shards))
    mbs;
  Alcotest.(check int) "cache covers the arena" needed cache.Obj_cache.nodes;
  Alcotest.(check int) "in the segments it takes"
    ((needed + Obj_cache.seg_handles - 1) / Obj_cache.seg_handles)
    (Array.length cache.Obj_cache.segs);
  (* queue a message at a few handles so the FIFOs carry contents *)
  let probes = [ 0; 7; needed / 2; needed - 1 ] in
  List.iter (fun h -> ignore (push_req (mb_of h) h (1000 + h) : bool)) probes;
  (* and take one into service: after the run every actor is idle *)
  ignore (Mailbox.take (mb_of 7) 7 : bool);
  let queue_state h =
    let mb = mb_of h in
    ( Mailbox.length mb h,
      (if Mailbox.length mb h > 0 then head_req mb h else -1),
      Mailbox.in_service mb h )
  in
  let handles = List.init needed Fun.id in
  let before = List.map queue_state handles in
  Alcotest.(check bool) "the probe is in service" true
    (Mailbox.is_busy (mb_of 7) 7
    && List.exists (fun (_, _, s) -> s >= 0) before);
  Array.iter
    (fun mb ->
      let prev = mb.Mailbox.cells in
      Mailbox.ensure mb ~handles:((prev * shards) + 1);
      Alcotest.(check int) "mailbox cells grow by an eighth"
        (max (prev + 1) (prev + (prev / 8)))
        mb.Mailbox.cells)
    mbs;
  Alcotest.(check bool) "queues and in-service slots kept" true
    (List.equal
       (fun (l, q, s) (l', q', s') -> l = l' && q = q' && s = s')
       before
       (List.map queue_state handles));
  let snapshot () =
    let acc = ref [] in
    Obj_cache.iter cache ~f:(fun ~h ~key ~server ~epoch ->
        acc := [ h; key; server; epoch ] :: !acc);
    !acc
  in
  let entries = snapshot () in
  Alcotest.(check bool) "cache holds entries" true
    (match entries with [] -> false | _ :: _ -> true);
  let old = Array.copy cache.Obj_cache.segs in
  let keys = Array.map (fun (g : Obj_cache.segment) -> g.Obj_cache.e_key) old in
  let covered = Array.length old * Obj_cache.seg_handles in
  Obj_cache.ensure_nodes cache (covered + 1);
  Alcotest.(check int) "one segment appended" (Array.length old + 1)
    (Array.length cache.Obj_cache.segs);
  Array.iteri
    (fun k g ->
      if not (cache.Obj_cache.segs.(k) == g && g.Obj_cache.e_key == keys.(k))
      then Alcotest.failf "segment %d was replaced by growth" k)
    old;
  Alcotest.(check (list (list int))) "cache entries kept" entries (snapshot ())

(* ---- serve engine + object cache (PR 9) ---- *)

let cached_params = { serve_params with Driver.cache_size = 8 }

let test_serve_cache_determinism () =
  (* the shard-confinement argument must hold with the cache attached:
     probes/fills/evicts/epoch bumps are all either owner-shard or
     barrier-sequential, so signatures stay domain-invariant — also
     under churn, which adds dead servers and dead-server entries *)
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

let test_serve_cache_helps () =
  (* the cache must not make service worse: no more failures than at
     zero ways and a strictly smaller delivered-message volume.  mailbox_cap is
     raised because at this tiny scale the cache's direct FETCHes
     concentrate on the few hot servers and a 64-message mailbox drops the
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
  (* --coop off is the plain cached engine: no hint moves, so the
     signature's hint fields read zero; and coop at zero ways, where no
     line can take a hint, is forced off *)
  let _, r_cached = run_serve ~params:cached_params ~domains:2 () in
  let _, r_plain = run_serve ~params:serve_params ~domains:2 () in
  let _, r_zero_ways =
    run_serve ~params:{ serve_params with Driver.coop = true } ~domains:2 ()
  in
  Alcotest.(check string) "coop at zero ways is forced off"
    (Driver.signature r_plain) (Driver.signature r_zero_ways);
  let s = Driver.signature r_cached in
  let rec has_sub sub i =
    i + String.length sub <= String.length s
    && (String.sub s i (String.length sub) = sub || has_sub sub (i + 1))
  in
  Alcotest.(check bool) "hint fields read zero" true (has_sub "hf=0 hh=0;" 0);
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

(* A per-shard counter summed over the engine's shards. *)
let sum_ctx (t : Serve.Shard.t) f =
  Array.fold_left (fun acc ctx -> acc + f ctx) 0 t.Serve.Shard.ctxs

let sum_recoveries t =
  sum_ctx t (fun ctx -> ctx.Serve.Actor.tally.Simnet.Stats.Tally.recoveries)

(* Once a run has drained, every mailbox pool slot and every request
   slot is back on its free list. *)
let check_released what (t : Serve.Shard.t) =
  let sh = t.Serve.Shard.sh in
  Array.iteri
    (fun s mb ->
      let rec free slot k =
        if slot < 0 then k else free mb.Mailbox.r_next.(slot) (k + 1)
      in
      Alcotest.(check int)
        (Printf.sprintf "%s: shard %d's message slots released" what s)
        mb.Mailbox.used (free mb.Mailbox.free 0))
    sh.Serve.Actor.mbs;
  Array.iteri
    (fun s (p : Serve.Actor.slots) ->
      let rec free slot k =
        if slot < 0 then k
        else
          free
            p.Serve.Actor.segs.(slot / Serve.Actor.slot_seg).Serve.Actor.s_next
              .(slot mod Serve.Actor.slot_seg)
            (k + 1)
      in
      Alcotest.(check int)
        (Printf.sprintf "%s: shard %d's request slots reclaimed" what s)
        p.Serve.Actor.used (free p.Serve.Actor.free 0))
    sh.Serve.Actor.slots

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
  (* every recovery is poisoned: the pointers along a server's publish
     path, its own included, outlive the replica, and with ways each
     node's cache names that server too, so every FETCH of the one
     request finds the replica gone -- through the cached climbs
     (rc < rc_max) and the cache-free ones alike.  A zero-way cache
     takes no entry, and the pointers alone poison the same budget. *)
  List.iter
    (fun ways ->
      let net = build_net 256 42 in
      let roots = net.Network.config.Config.root_set_size in
      let g = Network.fresh_id net in
      let guids = Array.init roots (fun r -> Network.salted net g r) in
      let liar = Network.random_alive net in
      ignore (Publish.publish net ~server:liar guids.(0) : Publish.outcome);
      Node.remove_replica liar guids.(0);
      let c = Obj_cache.create ~ways ~nodes:net.Network.arena_len in
      let key = Obj_cache.intern c guids.(0) in
      let t =
        Serve.Shard.create ~net ~guids ~roots ~ttl:1e6 ~latency:1e-5
          ~service:1e-4 ~mailbox_cap:64 ~seed:1 ~window:0.02
          ~cache:c ~coop:false
      in
      let liar_h = liar.Node.handle in
      Network.iter_alive net (fun n ->
          Obj_cache.insert c ~h:n.Node.handle ~key ~server:liar_h
            ~epoch:(Obj_cache.epoch_of c ~key ~srv:liar_h));
      let rec pick () =
        let n = Network.random_alive net in
        if n.Node.handle = liar_h then pick () else n
      in
      let client = (pick ()).Node.handle in
      let ctx = t.Serve.Shard.ctxs.(Serve.Shard.shard_of client) in
      Serve.Actor.send ctx ~time:0. ~h:client ~kind:Serve.Actor.op_locate
        ~req:(Serve.Actor.open_req ctx)
        ~oi:0 ~level:0 ~prev:(-1) ~src:client;
      Serve.Shard.run t ~domains:1 ~now:(fun () -> 0.)
        ~on_barrier:(fun _ _ -> ());
      let what = Printf.sprintf "%d ways: " ways in
      Alcotest.(check int)
        (what ^ "recovers exactly rc_max + 1 times")
        (Serve.Actor.rc_max + 1) (sum_recoveries t);
      Alcotest.(check (pair int int)) (what ^ "then fails exhausted")
        (1, 1)
        ( sum_ctx t (fun ctx -> ctx.Serve.Actor.failed),
          sum_ctx t (fun ctx -> ctx.Serve.Actor.exhausted) ))
    [ 4; 0 ]

(* A FETCH that races an unpublish recovers at zero ways: an object has
   replicas on [s1] and on [s2], the alive node farthest from [x], where
   [x] is [s1]'s first hop toward the root.  A LOCATE from [x] reads
   [x]'s pointer to [s1] just before the served UNPUBLISH of [s1]
   retracts it, so its FETCH reaches [s1] after the replica left.  The
   FETCH spends one redirect and re-climbs from [s1], behind the
   retraction, to the pointer naming [s2]. *)
(* A cache entry carries no server generation: a server killed at a
   barrier is caught by the probe's liveness check alone, since churn
   never revives a node or reuses its handle.  Request 0, a LOCATE at
   the server itself, opens a window so that the server dies at its
   barrier; request 1's LOCATE then probes the client's entry naming
   the dead server, counts it stale, evicts the way and climbs on. *)
let test_dead_server_entry_stale () =
  let net = build_net 256 42 in
  let roots = net.Network.config.Config.root_set_size in
  let g = Network.fresh_id net in
  let guids = Array.init roots (fun r -> Network.salted net g r) in
  let server = Network.random_alive net in
  ignore (Publish.publish net ~server guids.(0) : Publish.outcome);
  let rec pick () =
    let n = Network.random_alive net in
    if n.Node.handle = server.Node.handle then pick () else n
  in
  let client = (pick ()).Node.handle and s = server.Node.handle in
  let c = Obj_cache.create ~ways:4 ~nodes:net.Network.arena_len in
  let key = Obj_cache.intern c guids.(0) in
  Obj_cache.insert c ~h:client ~key ~server:s
    ~epoch:(Obj_cache.epoch_of c ~key ~srv:s);
  let t =
    Serve.Shard.create ~net ~guids ~roots ~ttl:1e6 ~latency:1e-5
      ~service:1e-4 ~mailbox_cap:64 ~seed:1 ~window:0.02
      ~cache:c ~coop:false
  in
  let send ~time ~h =
    let ctx = t.Serve.Shard.ctxs.(Serve.Shard.shard_of h) in
    Serve.Actor.send ctx ~time ~h ~kind:Serve.Actor.op_locate
      ~req:(Serve.Actor.open_req ctx)
      ~oi:0 ~level:0 ~prev:(-1) ~src:h
  in
  send ~time:0. ~h:s;
  send ~time:1. ~h:client;
  let completed () = sum_ctx t (fun ctx -> ctx.Serve.Actor.completed) in
  Serve.Shard.run t ~domains:1 ~now:(fun () -> 0.)
    ~on_barrier:(fun t _ ->
      if Node.is_alive server then begin
        Alcotest.(check int) "request 0 served before the kill" 1
          (completed ());
        Serve.Shard.kill_node t server
      end);
  let sum f = sum_ctx t (fun ctx -> f ctx.Serve.Actor.tally) in
  Alcotest.(check bool) "the server died" false (Node.is_alive server);
  Alcotest.(check int) "one stale probe" 1
    (sum (fun tl -> tl.Simnet.Stats.Tally.stale));
  Alcotest.(check int) "one evict" 1
    (sum (fun tl -> tl.Simnet.Stats.Tally.evicts));
  Alcotest.(check int) "no hit" 0 (sum (fun tl -> tl.Simnet.Stats.Tally.hits));
  Alcotest.(check int) "the way is empty" 0 (Obj_cache.entries c);
  Alcotest.(check (pair int int)) "request 1 not served by the dead server"
    (1, 1)
    (completed (), sum_ctx t (fun ctx -> ctx.Serve.Actor.failed))

let test_fetch_race_recovers_without_ways () =
  let net = build_net 256 42 in
  let roots = net.Network.config.Config.root_set_size in
  let g = Network.fresh_id net in
  let guids = Array.init roots (fun r -> Network.salted net g r) in
  let rec first_hop () =
    let s1 = Network.random_alive net in
    match Route.peek_first_hop net s1 guids.(0) with
    | Some x -> (s1, x)
    | None -> first_hop ()
  in
  let s1, x = first_hop () in
  let s2 =
    List.fold_left
      (fun best n ->
        if Network.dist net x n > Network.dist net x best then n else best)
      s1 (Network.alive_nodes net)
  in
  List.iter
    (fun server ->
      ignore (Publish.publish net ~server guids.(0) : Publish.outcome))
    [ s1; s2 ];
  let t =
    Serve.Shard.create ~net ~guids ~roots ~ttl:1e6 ~latency:1e-5
      ~service:1e-4 ~mailbox_cap:64 ~seed:1 ~window:0.02
      ~cache:(Obj_cache.create ~ways:0 ~nodes:net.Network.arena_len)
      ~coop:false
  in
  let send ~time ~(at : Node.t) ~kind =
    let ctx = t.Serve.Shard.ctxs.(Serve.Shard.shard_of at.Node.handle) in
    Serve.Actor.send ctx ~time ~h:at.Node.handle ~kind
      ~req:(Serve.Actor.open_req ctx)
      ~oi:0 ~level:0 ~prev:(-1) ~src:at.Node.handle
  in
  send ~time:0.505 ~at:s1 ~kind:Serve.Actor.op_unpublish;
  send ~time:0.50495 ~at:x ~kind:Serve.Actor.op_locate;
  Serve.Shard.run t ~domains:1 ~now:(fun () -> 0.) ~on_barrier:(fun _ _ -> ());
  Alcotest.(check int) "the FETCH raced the retraction once" 1
    (sum_recoveries t);
  Alcotest.(check (pair int int))
    "the unpublish and the locate (at s2) complete" (2, 0)
    ( sum_ctx t (fun ctx -> ctx.Serve.Actor.completed),
      sum_ctx t (fun ctx -> ctx.Serve.Actor.failed) )

(* A served UNPUBLISH retracts cached entries naming its server, and
   only those: one object has replicas on s1 and s2, every node's cache
   holds an epoch-current entry naming one of them, and s1 is retracted
   through the serve path.  The barrier's epoch bump makes every entry
   naming s1 self-evict on its next probe (stale), so no FETCH ever
   reaches s1 (no recovery), while the entries naming s2 keep answering
   (hits) and every locate completes. *)
let test_unpublish_retracts_cached_entries () =
  let net = build_net 256 42 in
  let roots = net.Network.config.Config.root_set_size in
  let g = Network.fresh_id net in
  let guids = Array.init roots (fun r -> Network.salted net g r) in
  let s1 = Network.random_alive net in
  let rec other () =
    let n = Network.random_alive net in
    if n.Node.handle = s1.Node.handle then other () else n
  in
  let s2 = other () in
  List.iter
    (fun server ->
      ignore (Publish.publish net ~server guids.(0) : Publish.outcome))
    [ s1; s2 ];
  let locates = 40 in
  let c = Obj_cache.create ~ways:4 ~nodes:net.Network.arena_len in
  let key = Obj_cache.intern c guids.(0) in
  let t =
    Serve.Shard.create ~net ~guids ~roots ~ttl:1e6 ~latency:1e-5
      ~service:1e-4 ~mailbox_cap:64 ~seed:1
      ~window:0.02 ~cache:c ~coop:false
  in
  (* even handles name s1, odd handles s2 *)
  Network.iter_alive net (fun n ->
      let h = n.Node.handle in
      let srv = if h mod 2 = 0 then s1.Node.handle else s2.Node.handle in
      Obj_cache.insert c ~h ~key ~server:srv
        ~epoch:(Obj_cache.epoch_of c ~key ~srv));
  (* [opens]: the message carries a request, else it is a chain *)
  let send ~time ~h ~kind ~opens ~oi =
    let ctx = t.Serve.Shard.ctxs.(Serve.Shard.shard_of h) in
    Serve.Actor.send ctx ~time ~h ~kind
      ~req:(if opens then Serve.Actor.open_req ctx else -1)
      ~oi ~level:0 ~prev:(-1) ~src:h
  in
  (* one request retracts s1 on every root; the locates start well
     after the barrier that applies its epoch bump *)
  for r = 0 to roots - 1 do
    send ~time:0. ~h:s1.Node.handle ~kind:Serve.Actor.op_unpublish
      ~opens:(r = 0) ~oi:r
  done;
  for req = 1 to locates do
    send ~time:1. ~h:(Network.random_alive net).Node.handle
      ~kind:Serve.Actor.op_locate ~opens:true ~oi:(req mod roots)
  done;
  Serve.Shard.run t ~domains:1 ~now:(fun () -> 0.) ~on_barrier:(fun _ _ -> ());
  Alcotest.(check (pair int int)) "every request completes" (1 + locates, 0)
    ( sum_ctx t (fun ctx -> ctx.Serve.Actor.completed),
      sum_ctx t (fun ctx -> ctx.Serve.Actor.failed) );
  let tl = Simnet.Stats.Tally.create () in
  Array.iter
    (fun (ctx : Serve.Actor.ctx) ->
      Simnet.Stats.Tally.merge ~into:tl ctx.Serve.Actor.tally)
    t.Serve.Shard.ctxs;
  Alcotest.(check bool) "entries naming s1 went stale" true
    (tl.Simnet.Stats.Tally.stale > 0);
  Alcotest.(check bool) "entries naming s2 still hit" true
    (tl.Simnet.Stats.Tally.hits > 0);
  Alcotest.(check int) "no FETCH reached the retracted server" 0
    tl.Simnet.Stats.Tally.recoveries

let test_cache_zero_signature_pinned () =
  (* the zero-way engine: every probe misses, and a FETCH that races an
     unpublish recovers by the same rule as with ways; churn included *)
  let digest params =
    let _, r = run_serve ~params ~domains:2 () in
    Digest.to_hex (Digest.string (Driver.signature r))
  in
  Alcotest.(check string) "zero-way signature pinned"
    "fac655acb7d7b3ff882dca5791b32480" (digest serve_params);
  Alcotest.(check string) "churned zero-way signature pinned"
    "479ff8d4d179e401e0f7097691bab7c3"
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

(* ---- event heap: the engine's event order ---- *)

module Events = Serve.Mailbox.Events

(* Times come from a coarse grid so equal times, and their tie-breaks,
   are common. *)
let grid i = 0.25 *. float_of_int i

type event_op =
  | Schedule of int  (* engine event at a grid time *)
  | Send of int  (* message at a grid time *)
  | Pop
  | Lift of int  (* raise the clock to a grid time *)

let event_op_gen =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun i -> Schedule i) (int_bound 12));
        (3, map (fun i -> Send i) (int_bound 12));
        (4, pure Pop);
        (1, map (fun i -> Lift i) (int_bound 14));
      ])

(* The order the engine ran before engine events and messages shared a
   heap: two stable [Simnet.Heap]s, one per class, merged by head time
   with the engine event first on ties; every pop and lift raises the
   clock.  The one heap pops the same events in the same order and
   leaves the same clock after every step. *)
let prop_events_match_two_heaps =
  QCheck.Test.make ~count:500 ~name:"event heap pops in two-heap merge order"
    QCheck.(make Gen.(list_size (int_range 0 100) event_op_gen))
    (fun ops ->
      let q = Events.create (Mailbox.create ~cap:1 ~handles:1) in
      let timers = Simnet.Heap.create ~cmp:Float.compare in
      let msgs = Simnet.Heap.create ~cmp:Float.compare in
      let next = ref 0 and clock = ref 0. in
      let head h =
        match Simnet.Heap.peek h with Some (t, _) -> t | None -> infinity
      in
      let same_clock () = Float.equal q.Events.clock.(0) !clock in
      List.for_all
        (function
          | Schedule i ->
              Events.schedule q ~time:(grid i) ~kind:Serve.Actor.ev_inject
                ~h:!next;
              Simnet.Heap.push timers (grid i) !next;
              incr next;
              true
          | Send i ->
              Events.push q ~time:(grid i) ~h:!next
                ~kind:Serve.Actor.op_locate ~req:0 ~oi:0 ~level:0 ~prev:0
                ~src:0;
              Simnet.Heap.push msgs (grid i) !next;
              incr next;
              true
          | Lift l ->
              Events.lift q (grid l);
              clock := Float.max !clock (grid l);
              same_clock ()
          | Pop -> (
              let popped = Events.pop_into q in
              let expect =
                if head timers <= head msgs then
                  Option.map
                    (fun (t, id) -> (t, id, Serve.Actor.ev_inject))
                    (Simnet.Heap.pop timers)
                else
                  Option.map
                    (fun (t, id) -> (t, id, Serve.Actor.op_locate))
                    (Simnet.Heap.pop msgs)
              in
              match expect with
              | None -> not popped
              | Some (time, id, kind) ->
                  clock := Float.max !clock time;
                  popped && q.Events.o_h = id && q.Events.o_kind = kind
                  && same_clock ()))
        ops
      && q.Events.tlen = Simnet.Heap.length timers + Simnet.Heap.length msgs)

(* The reference timeline: a stable [Simnet.Heap] of closures and a
   clock.  A push at time [t] lands at [max t clock]; [run_until l]
   runs every event at or before [l], including those pushed
   meanwhile, raising the clock to each event's time, then lifts the
   clock to [l]. *)
type model = { heap : (float, unit -> unit) Simnet.Heap.t; mutable now : float }

let model_push m t f = Simnet.Heap.push m.heap (Float.max t m.now) f

let rec model_run_until m limit =
  match Simnet.Heap.peek m.heap with
  | Some (t, _) when t <= limit ->
      let t, f = Simnet.Heap.pop_exn m.heap in
      m.now <- Float.max m.now t;
      f ();
      model_run_until m limit
  | _ -> m.now <- Float.max m.now limit

(* Random programs of pushes and [run_until] calls, where every event
   pushes follow-up events while it runs: the shard's event loop,
   [Actor.run_until], runs the same events in the same order as the
   reference timeline and leaves the same clock after every call. *)
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

let prop_timer_matches_model =
  let ctx =
    let t =
      Serve.Shard.create ~net:(build_net 16 3) ~guids:[||] ~roots:1 ~ttl:1.
        ~latency:1e-5 ~service:1e-4 ~mailbox_cap:4 ~seed:1
        ~window:0.02 ~cache:(Obj_cache.create ~ways:0 ~nodes:16) ~coop:false
    in
    t.Serve.Shard.ctxs.(0)
  in
  QCheck.Test.make ~count:300 ~name:"run_until matches the reference timeline"
    QCheck.(make Gen.(list_size (int_range 0 40) timer_op_gen))
    (fun ops ->
      let ops = Array.of_list ops in
      (* event ids: 3 * op index for a push, + 1 + j for its j-th
         follow-up *)
      let gaps id =
        match ops.(id / 3) with Push (_, ks) -> ks | Run_until _ -> []
      in
      let m = { heap = Simnet.Heap.create ~cmp:Float.compare; now = 0. } in
      let model_log = ref [] in
      let rec model_event id () =
        model_log := id :: !model_log;
        if id mod 3 = 0 then
          List.iteri
            (fun j k -> model_push m (m.now +. grid k) (model_event (id + 1 + j)))
            (gaps id)
      in
      let q = Events.create (Mailbox.create ~cap:1 ~handles:1) in
      let push time id =
        let c = q.Events.clock.(0) in
        Events.schedule q ~time:(Float.max time c) ~kind:Serve.Actor.ev_inject
          ~h:id
      in
      let timer_log = ref [] in
      let ctx = { ctx with Serve.Actor.q } in
      ctx.Serve.Actor.inject <-
        (fun ctx ->
          let id = ctx.Serve.Actor.q.Events.o_h in
          timer_log := id :: !timer_log;
          if id mod 3 = 0 then
            List.iteri
              (fun j k -> push (q.Events.clock.(0) +. grid k) (id + 1 + j))
              (gaps id));
      let same_clock () = Float.equal m.now q.Events.clock.(0) in
      let ok =
        Array.to_list ops
        |> List.mapi (fun i op -> (i, op))
        |> List.for_all (fun (i, op) ->
               match op with
               | Push (t, _) ->
                   model_push m (grid t) (model_event (3 * i));
                   push (grid t) (3 * i);
                   true
               | Run_until l ->
                   model_run_until m (grid l);
                   Serve.Actor.run_until ctx (grid l);
                   same_clock ())
      in
      model_run_until m 100.;
      Serve.Actor.run_until ctx 100.;
      ok && same_clock () && List.equal Int.equal !model_log !timer_log)

(* ---- allocation in the measured phase ---- *)

(* Minor words per delivered message from the engine's first wall stamp
   to the driver's return ([now]'s second and last calls), at n=1024 in
   the benchmark's two shapes.  With the histogram accumulators and
   the pointer selector's best distance and probe time in float-array
   cells, the histogram bucket read off the IEEE bits, and pointer
   records kept as columns (no per-record block), it reads 39.7 (hot)
   and 49.0 (cold churn).  With boxed records naming servers and
   previous hops by arena handle it read 39.7 and 49.8; with ID-keyed
   records, where the selector resolved each record's server through a
   hash lookup that returned an option and a PUBLISH hop boxed [Some
   previous] and a refresh its verdict, it read 39.9 and 51.0; with the float cells
   above in boxed float fields and [Float.frexp]'s tuple, 44.1 and 54.5.  With the clock and
   the popped message time in boxed record fields it read 49.9 and
   59.9, and the fiber engine before that 109.7 and 116.5, with a
   continuation, a closure and a heap entry per drain start, service
   and injector gap.  The bounds leave about 3 words of margin, so a
   closure or boxed float per message coming back fails here. *)
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

(* Words promoted to the major heap in the placement window (from
   [now]'s first call to its second: the object GUIDs, [Publish.place]
   and the engine's set-up), at n=1024 with 10^4 objects and no cache,
   against the words of the pointer columns at the window's end
   ([Network.memory_footprint]'s pointer line).  Placement sizes each
   store once, so it promotes about the columns themselves (1.09x them,
   with the replica tables); the GUIDs add 0.38x and the engine 0.25x,
   and the window reads 1.71x.  With the [Pointer_store.reserve] call
   dropped, every store grows by doubling and leaves a copy of each
   smaller column behind: placement alone promotes 1.76x and the
   window 2.39x.  The bound sits between the two. *)
let placement_promotion () =
  let net = build_net 1024 7 in
  let calls = ref 0 and p0 = ref 0. and p1 = ref 0. and cols = ref 0 in
  let now () =
    incr calls;
    (* empty the minor heap first, so the window counts what it
       allocated and kept, not the survivors of the mesh build *)
    if !calls <= 2 then Gc.minor ();
    let p = (Gc.quick_stat ()).Gc.promoted_words in
    if !calls = 1 then p0 := p;
    if !calls = 2 then begin
      p1 := p;
      cols := (Network.memory_footprint net).Network.pointer_bytes / 8
    end;
    float_of_int !calls
  in
  ignore
    (Driver.run ~net
       { Driver.default with Driver.requests = 1_000; objects = 10_000; domains = 1 }
       ~now
      : Driver.result);
  (!p1 -. !p0, float_of_int !cols)

let test_alloc_placement () =
  let promoted, cols = placement_promotion () in
  if promoted > 2.0 *. cols then
    Alcotest.failf
      "placement window promoted %.0f words for %.0f words of pointer \
       columns (%.2fx, bound 2.0x)"
      promoted cols (promoted /. cols)

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
  if w > 43. then
    Alcotest.failf "hot shape: %.1f minor words per delivered message (bound 43)" w

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
  if w > 52. then
    Alcotest.failf "cold-churn shape: %.1f minor words per delivered message (bound 52)" w

(* ---- memory ledger ---- *)

(* Queued and in-flight messages live in each shard's mailbox pool, and
   the ledger's mailbox line counts every shard's store (pool and
   per-handle cells), event heap and outbox.  On the n=4096 serve smoke
   (1e5 Zipf requests) that is about 2.1 MB, most of it the pools'
   payload columns (about 135 live messages per shard at the peak) and
   the outboxes; the rings it replaced were 12.6 MB on their own. *)
let test_ledger_mailbox_line () =
  let net = build_net 4096 42 in
  let r =
    Driver.run ~net
      { Driver.default with Driver.objects = 10_000; domains = 1 }
      ~now:(fake_clock ())
  in
  let t = r.Driver.engine in
  let parts = ref 0 in
  Array.iteri
    (fun s mb ->
      let ctx = t.Serve.Shard.ctxs.(s) in
      parts :=
        !parts + Mailbox.approx_bytes mb
        + Mailbox.Events.approx_bytes ctx.Serve.Actor.q
        + Mailbox.Outbox.approx_bytes ctx.Serve.Actor.out)
    t.Serve.Shard.sh.Serve.Actor.mbs;
  let line =
    match
      List.find_opt (fun (k, _) -> String.equal k "mailbox")
        (Driver.memory_ledger r)
    with
    | Some (_, b) -> b
    | None -> Alcotest.fail "no mailbox line"
  in
  Alcotest.(check int) "stores + heaps + outboxes" !parts line;
  if line >= 3_000_000 then
    Alcotest.failf "mailbox line %d bytes: want under 3 MB" line

(* Request state lives only while the request is in flight: the slot
   pools follow the load in flight, which a longer run at the same rate
   does not raise, and nothing is kept per request of the run.  From
   10^4 to 4.10^4 requests the requests line may not grow at all (both
   read 112 920 B); a byte per request, or pools sized by the request
   count (the slot size, over 30 bytes, per request), fail it. *)
let test_request_memory_follows_load () =
  let bytes requests =
    let _, r =
      run_serve ~params:{ serve_params with Driver.requests; rate = 10_000. }
        ~domains:2 ()
    in
    let t = r.Driver.engine in
    check_released (Printf.sprintf "%d requests" requests) t;
    Serve.Actor.request_bytes t.Serve.Shard.sh
  in
  let short = bytes 10_000 and long = bytes 40_000 in
  if long - short > 0 then
    Alcotest.failf "requests line grew %d bytes for 30000 more requests (%d -> %d)"
      (long - short) short long

(* Pools grow by doubling from 64 slots as traffic needs them, so after
   a churned n=1024 run each shard's pool holds at most twice the most
   slots it ever had in use.  Once the run has drained, every slot a
   message or engine event took is back on the free list: delivery,
   service end, drops, dead letters and kills all release theirs. *)
let test_pool_follows_high_water () =
  let net = build_net 1024 7 in
  let r =
    Driver.run ~net
      {
        Driver.default with
        Driver.requests = 20_000;
        objects = 20_000;
        zipf_s = 0.;
        p_publish = 0.3;
        p_unpublish = 0.1;
        kill_rate = 20.;
        join_rate = 20.;
        domains = 2;
      }
      ~now:(fake_clock ())
  in
  Alcotest.(check bool) "churned" true (r.Driver.kills > 0 && r.Driver.joins > 0);
  Array.iteri
    (fun s mb ->
      let cap = Mailbox.pool_capacity mb and used = mb.Mailbox.used in
      if cap > 2 * used then
        Alcotest.failf "shard %d: pool of %d slots, high-water mark %d" s cap
          used)
    r.Driver.engine.Serve.Shard.sh.Serve.Actor.mbs;
  check_released "churned run" r.Driver.engine

(* A node killed at a barrier takes its messages with it at every stage
   they can be in: one queued in its mailbox, one in service (the
   service time outlasts the window), one in flight in its own shard's
   event heap and one in another shard's outbox.  Each is one dead
   letter when it next comes up -- the queued one at the kill, the
   others at their delivery or service end, one per window -- fails its
   request, and gives its pool slot back. *)
let test_killed_node_dead_letters () =
  let net = build_net 256 42 in
  let roots = net.Network.config.Config.root_set_size in
  let g = Network.fresh_id net in
  let guids = Array.init roots (fun r -> Network.salted net g r) in
  let victim = Network.random_alive net in
  let h = victim.Node.handle in
  let own = Serve.Shard.shard_of h in
  let other = (own + 1) mod Serve.Shard.shard_count in
  let t =
    Serve.Shard.create ~net ~guids ~roots ~ttl:1e6 ~latency:1e-5
      ~service:0.05 ~mailbox_cap:64 ~seed:1 ~window:0.02
      ~cache:(Obj_cache.create ~ways:0 ~nodes:net.Network.arena_len)
      ~coop:false
  in
  let send ~from ~time =
    let ctx = t.Serve.Shard.ctxs.(from) in
    let tag = Serve.Actor.open_req ctx in
    Serve.Actor.send ctx ~time ~h ~kind:Serve.Actor.op_locate ~req:tag ~oi:0
      ~level:0 ~prev:(-1) ~src:h;
    tag
  in
  (* served from 0.005 to 0.055, across the first barrier at 0.02 *)
  let serving = send ~from:own ~time:0.005 in
  (* queued behind it *)
  let queued = send ~from:own ~time:0.01 in
  (* in the victim's shard's heap, arriving after the kill *)
  ignore (send ~from:own ~time:0.03 : int);
  let dead () = sum_ctx t (fun ctx -> ctx.Serve.Actor.dead_letter) in
  let per_barrier = ref [] in
  Serve.Shard.run t ~domains:1 ~now:(fun () -> 0.)
    ~on_barrier:(fun t _ ->
      if Node.is_alive victim then begin
        let mb = t.Serve.Shard.sh.Serve.Actor.mbs.(own) in
        Alcotest.(check (pair int int)) "one message in service, one queued"
          (serving, queued)
          ( mb.Mailbox.r_req.(Mailbox.in_service mb h),
            mb.Mailbox.r_req.(Mailbox.msg_index mb h) );
        (* in another shard's outbox, arriving after the kill *)
        ignore (send ~from:other ~time:0.07 : int);
        Serve.Shard.kill_node t victim
      end;
      per_barrier := dead () :: !per_barrier);
  Alcotest.(check (list int)) "one dead letter per stage, in stage order"
    [ 1; 2; 3; 4 ] (List.rev !per_barrier);
  Alcotest.(check int) "every request failed" 4
    (sum_ctx t (fun ctx -> ctx.Serve.Actor.failed));
  Alcotest.(check int) "none completed" 0
    (sum_ctx t (fun ctx -> ctx.Serve.Actor.completed));
  Alcotest.(check int) "no chain message lost" 0
    (sum_ctx t (fun ctx -> ctx.Serve.Actor.chain_lost));
  check_released "after the kill" t

(* A delivery that finds its actor idle starts the drain itself: no
   drain-start event is pushed, the message goes straight into service
   and the heap holds only its service-done event.  Once that event has
   run and the queue is empty, the actor is idle again. *)
let test_delivery_starts_drain () =
  let net = build_net 256 42 in
  let roots = net.Network.config.Config.root_set_size in
  let g = Network.fresh_id net in
  let guids = Array.init roots (fun r -> Network.salted net g r) in
  let h = (Network.random_alive net).Node.handle in
  let t =
    Serve.Shard.create ~net ~guids ~roots ~ttl:1e6 ~latency:1e-5
      ~service:0.05 ~mailbox_cap:64 ~seed:1 ~window:0.02
      ~cache:(Obj_cache.create ~ways:0 ~nodes:net.Network.arena_len)
      ~coop:false
  in
  let ctx = t.Serve.Shard.ctxs.(Serve.Shard.shard_of h) in
  let q = ctx.Serve.Actor.q in
  let mb = q.Events.mb in
  let tag = Serve.Actor.open_req ctx in
  Serve.Actor.send ctx ~time:0.005 ~h ~kind:Serve.Actor.op_locate ~req:tag
    ~oi:0 ~level:0 ~prev:(-1) ~src:h;
  Alcotest.(check bool) "idle before the delivery" false (Mailbox.is_busy mb h);
  Serve.Actor.run_until ctx 0.005;
  Alcotest.(check int) "one event pending" 1 q.Events.tlen;
  Alcotest.(check int) "pushed: the message and its service-done, nothing else"
    2 q.Events.seq;
  let ev = q.Events.tp.(0) in
  Alcotest.(check int) "the event is the actor's" h mb.Mailbox.r_h.(ev);
  Alcotest.(check bool) "a service-done event" true
    (mb.Mailbox.r_kind.(ev) < 0
    && mb.Mailbox.r_kind.(ev) <> Serve.Actor.ev_inject);
  Alcotest.(check (float 0.)) "due at the end of service" (0.005 +. 0.05)
    (Events.peek_time q);
  Alcotest.(check int) "the message is in service" tag
    mb.Mailbox.r_req.(Mailbox.in_service mb h);
  Alcotest.(check bool) "busy" true (Mailbox.is_busy mb h);
  Serve.Actor.run_until ctx (Events.peek_time q);
  Alcotest.(check int) "queue empty" 0 (Mailbox.length mb h);
  Alcotest.(check bool) "idle after its service" false (Mailbox.is_busy mb h);
  Alcotest.(check int) "nothing in service" (-1) (Mailbox.in_service mb h)

(* With zero service the whole drain runs inside the delivery: no
   message ever waits in a mailbox, so even a one-message bound drops
   nothing.  The signature of a churned, cached run with hints is
   pinned at one and two domains. *)
let test_zero_service_pinned () =
  let params =
    {
      serve_params with
      Driver.service = 0.;
      mailbox_cap = 1;
      kill_rate = 100.;
      join_rate = 50.;
      cache_size = 16;
      coop = true;
    }
  in
  List.iter
    (fun domains ->
      let _, r = run_serve ~params ~domains () in
      Alcotest.(check bool) "churned" true
        (r.Driver.kills > 0 && r.Driver.joins > 0 && r.Driver.dead_letter > 0);
      Alcotest.(check int) "nothing dropped" 0 r.Driver.dropped;
      Alcotest.(check string)
        (Printf.sprintf "signature pinned (domains %d)" domains)
        "a6053fa440babe51e61f96d6b1f7cb51"
        (Digest.to_hex (Digest.string (Driver.signature r))))
    [ 1; 2 ]

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
          Alcotest.test_case "kill clears the queue, slot reusable" `Quick
            test_mailbox_kill;
          Alcotest.test_case "ensure-growth preserves contents" `Quick
            test_mailbox_growth;
          Alcotest.test_case "mailbox memory independent of cap" `Quick
            test_mailbox_bytes_independent_of_cap;
        ] );
      ( "rows",
        [
          Alcotest.test_case "push order kept across doublings, widths 1-4"
            `Quick test_rows_push_order;
          Alcotest.test_case "swap_remove moves the last row into the gap"
            `Quick test_rows_swap_remove;
          Alcotest.test_case "mem2 and clear" `Quick test_rows_mem2_clear;
          Alcotest.test_case "pushes after warm-up allocate nothing" `Quick
            test_rows_no_alloc;
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
          Alcotest.test_case "churn joins grow mailbox, cache appends"
            `Quick test_serve_churn_growth;
          Alcotest.test_case "churned run: pools sized and released"
            `Quick test_pool_follows_high_water;
          Alcotest.test_case "request memory follows in-flight load" `Quick
            test_request_memory_follows_load;
          Alcotest.test_case
            "a killed node's messages are dead letters at every stage" `Quick
            test_killed_node_dead_letters;
          Alcotest.test_case "a delivery to an idle actor starts its drain at once"
            `Quick test_delivery_starts_drain;
          Alcotest.test_case "zero-service churned run pinned" `Quick
            test_zero_service_pinned;
        ] );
      ( "cache",
        [
          Alcotest.test_case "cache-on runs domain-invariant (incl. churn)"
            `Quick test_serve_cache_determinism;
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
          Alcotest.test_case "served unpublish retracts cached entries"
            `Quick test_unpublish_retracts_cached_entries;
          Alcotest.test_case "FETCH racing an unpublish recovers at 0 ways"
            `Quick test_fetch_race_recovers_without_ways;
          Alcotest.test_case "an entry naming a killed server is stale"
            `Quick test_dead_server_entry_stale;
        ] );
      ( "timer",
        List.map QCheck_alcotest.to_alcotest
          [ prop_events_match_two_heaps; prop_timer_matches_model ] );
      ( "alloc",
        [
          Alcotest.test_case "hot shape minor words per message" `Quick
            test_alloc_hot;
          Alcotest.test_case "cold-churn shape minor words per message"
            `Quick test_alloc_cold_churn;
          Alcotest.test_case "placement promotes about its columns" `Quick
            test_alloc_placement;
        ] );
      ( "ledger",
        [
          Alcotest.test_case "phases tile wall_s" `Quick
            test_ledger_tiles_wall;
          Alcotest.test_case "mailbox line sums stores, heaps and outboxes"
            `Quick test_ledger_mailbox_line;
        ] );
    ]
