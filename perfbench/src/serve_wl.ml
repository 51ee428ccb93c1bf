(* The two serve workloads: an open loop of requests through
   [Serve.Driver.run] on a freshly built streamed mesh.

   One round = generate the metric, [Static_build.build_streamed], then
   [Driver.run], whose placement (every object published once) ends at
   the engine's first wall stamp.  Set-up is everything before that
   stamp; the measured phase is from there to the driver's return.
   Rounds with the same seed do identical work, so their
   [Driver.signature]s must agree — a determinism check on every run. *)

open Tapestry
module Driver = Serve.Driver
module Shard = Serve.Shard
module Hist = Simnet.Stats.Hist
module Tally = Simnet.Stats.Tally

type spec = {
  n : int;
  objects : int;
  zipf_s : float;
  p_publish : float;
  p_unpublish : float;
  kill_rate : float;  (** node failures per virtual second *)
  join_rate : float;  (** joins per virtual second *)
  cache_ways : int;
  coop : bool;
  domains : int;
  requests : int;  (** per round *)
}

(* Zipf 0.9 over 10^3 objects: the popular head fits in the caches. *)
let hot ~requests =
  {
    n = 4096;
    objects = 1_000;
    zipf_s = 0.9;
    p_publish = 0.05;
    p_unpublish = 0.01;
    kill_rate = 0.;
    join_rate = 0.;
    cache_ways = 64;
    coop = true;
    (* one domain: results are identical at any domain count, and on a
       2-core shared host a second domain measured the scheduler — its
       barrier waits took most of the run's spread *)
    domains = 1;
    requests;
  }

(* Uniform over 10^5 objects, write-heavy, with membership churn: the
   working set dwarfs the caches. *)
let cold_churn ~requests =
  {
    (hot ~requests) with
    objects = 100_000;
    zipf_s = 0.;
    p_publish = 0.3;
    p_unpublish = 0.1;
    kill_rate = 20.;
    join_rate = 20.;
  }

let params spec ~seed ~ttl =
  {
    Driver.default with
    Driver.seed;
    requests = spec.requests;
    zipf_s = spec.zipf_s;
    objects = spec.objects;
    p_publish = spec.p_publish;
    p_unpublish = spec.p_unpublish;
    ttl;
    kill_rate = spec.kill_rate;
    join_rate = spec.join_rate;
    domains = spec.domains;
    cache_size = spec.cache_ways;
    coop = spec.coop;
  }

type round = {
  net : Network.t;
  res : Driver.result;
  setup_s : float;
  setup_cpu_s : float;
  build_s : float;
  build_cpu_s : float;
  build_minor_words : float;
  stats : Static_build.stream_stats;
  placement_s : float;
  serve_s : float;
  serve_cpu_s : float;
  round_s : float;  (** whole round: set-up plus measured phase *)
  windows : float array;  (** wall gaps between the engine's barrier stamps *)
  progress : float array;  (** the measured phase's start, barrier stamps and end *)
}

(* One round.  With an enabled recorder, the build and the driver call
   are spans, and the driver's wall stamps become child spans: the
   placement, one span per barrier window, and the final collection. *)
let round ?(sp = Spans.create ~enabled:false) spec ~seed =
  let t0 = Common.wall () and c0 = Common.cpu () in
  let rng = Simnet.Rng.create seed in
  let metric =
    Spans.with_ sp "topology" (fun () ->
        Simnet.Topology.generate Simnet.Topology.Uniform_square ~n:spec.n ~rng)
  in
  (* soft state must outlive the run, as in the serve CLI *)
  let ttl =
    Float.max Config.default.Config.pointer_ttl
      (4. *. float_of_int spec.requests /. Driver.default.Driver.rate)
  in
  let cfg = { Config.default with Config.pointer_ttl = ttl } in
  let g0 = Gc.minor_words () in
  let tb0 = Common.wall () and cb0 = Common.cpu () in
  let net, stats =
    Spans.with_ sp "static_build" (fun () ->
        Static_build.build_streamed ~seed:(seed + 1) ~domains:spec.domains cfg
          metric ~n:spec.n)
  in
  let build_s = Common.wall () -. tb0 and build_cpu_s = Common.cpu () -. cb0 in
  let build_minor_words = Gc.minor_words () -. g0 in
  let sw = Common.Buf.create () and sc = Common.Buf.create () in
  let now () =
    let t = Common.wall () in
    Common.Buf.add sw t;
    Common.Buf.add sc (Common.cpu ());
    t
  in
  let res =
    Spans.with_ sp "serve.driver.run" (fun () ->
        let r = Driver.run ~net (params spec ~seed ~ttl) ~now in
        let w = sw.Common.Buf.a and k = sw.Common.Buf.len in
        Spans.add_closed sp "serve.driver.placement" ~t0:w.(0) ~t1:w.(1);
        for i = 1 to k - 3 do
          Spans.add_closed sp "serve.shard.window" ~t0:w.(i) ~t1:w.(i + 1)
        done;
        Spans.add_closed sp "serve.driver.collect" ~t0:w.(k - 2) ~t1:w.(k - 1);
        r)
  in
  let t_end = Common.wall () and c_end = Common.cpu () in
  let w = Common.Buf.to_array sw and c = Common.Buf.to_array sc in
  let k = Array.length w in
  {
    net;
    res;
    setup_s = w.(1) -. t0;
    setup_cpu_s = c.(1) -. c0;
    build_s;
    build_cpu_s;
    build_minor_words;
    stats;
    placement_s = w.(1) -. w.(0);
    serve_s = t_end -. w.(1);
    serve_cpu_s = c_end -. c.(1);
    round_s = t_end -. t0;
    windows = Array.init (max 0 (k - 3)) (fun i -> w.(i + 2) -. w.(i + 1));
    progress = Array.append (Array.sub w 1 (k - 1)) [| t_end |];
  }

(* Quiesce, then [Audit.run].  An audit that raises counts as one
   violation; every violation class is printed with its count and an
   example. *)
let audit r =
  match
    Shard.quiesce r.res.Driver.engine ~clock:(r.res.Driver.duration_v +. 1.);
    Audit.run r.net
  with
  | report ->
      let by_code = Hashtbl.create 8 in
      List.iter
        (fun v ->
          let c = Audit.violation_code v in
          match Hashtbl.find_opt by_code c with
          | Some (k, ex) -> Hashtbl.replace by_code c (k + 1, ex)
          | None -> Hashtbl.replace by_code c (1, v))
        report.Audit.violations;
      Hashtbl.fold (fun c x acc -> (c, x) :: acc) by_code []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b)
      |> List.iter (fun (c, (k, ex)) ->
             Common.say "audit: %d x %s, e.g. %s" k c
               (Format.asprintf "%a" Audit.pp_violation ex));
      List.length report.Audit.violations
  | exception e ->
      Common.say "audit: raised %s" (Printexc.to_string e);
      1

(* Quantile of a merged [Hist] interpolated linearly inside the bucket
   that holds the rank.  [Hist.quantile] answers the bucket's lower edge,
   so nearby runs would all read the same 1/64-wide step; interpolation
   keeps the value exact for a seed while resolving changes inside a
   bucket.  The bucket layout (32 strips per binary octave from 2^-32)
   mirrors [Simnet.Stats.Hist]; the self-tests check the result stays in
   the bucket [Hist.quantile] names. *)
let q h p =
  let counts = Hist.counts h and total = Hist.total h in
  if total = 0 then 0.
  else begin
    let edge b = Float.ldexp (0.5 +. (float_of_int (b mod 32) /. 64.)) ((b / 32) - 32) in
    let rank = Float.max 1. (p *. float_of_int total) in
    let rec walk b seen =
      if b >= Array.length counts then Hist.max_value h
      else
        let c = counts.(b) in
        if c > 0 && float_of_int (seen + c) >= rank then
          let frac = (rank -. float_of_int seen) /. float_of_int c in
          edge b +. (frac *. (edge (b + 1) -. edge b))
        else walk (b + 1) (seen + c)
    in
    walk 0 0
  end

(* Exact end-to-end metrics of a round (functions of the seed and the
   workload size only). *)
let exact_metrics (r : Driver.result) =
  let inj = r.Driver.injected in
  let m = Common.m ~exact:true in
  [
    m "msgs_per_op" "msgs" (Common.ratio r.Driver.delivered inj);
    m "failed_frac" "ratio" (Common.ratio r.Driver.failed inj);
    m "latency_p50_v" "s" (q r.Driver.hist_v 0.5);
    m "latency_p99_v" "s" (q r.Driver.hist_v 0.99);
    m "latency_p999_v" "s" (q r.Driver.hist_v 0.999);
  ]

let serve_layer_metrics rd =
  let r = rd.res in
  let inj = r.Driver.injected in
  let tl = r.Driver.tally in
  let lookups = Tally.lookups tl in
  let win = rd.windows in
  let m = Common.m in
  let e = Common.m ~exact:true in
  [
    m "static_build.wall_s" "s" rd.build_s;
    m "static_build.cpu_s" "s" rd.build_cpu_s;
    m "static_build.minor_mwords" "Mwords" (rd.build_minor_words /. 1e6);
    e "static_build.msgs_per_join" "msgs" rd.stats.Static_build.msgs.Static_build.mean;
    e "static_build.bytes_per_node" "B"
      (float_of_int rd.stats.Static_build.footprint.Network.total_bytes
      /. float_of_int rd.stats.Static_build.n);
    m "driver.placement_s" "s" rd.placement_s;
    e "shard.barriers" "count" (float_of_int r.Driver.barriers);
    m "shard.window_ms_p50" "ms" (1e3 *. Common.quantile win 0.5);
    m "shard.window_ms_p99" "ms" (1e3 *. Common.quantile win 0.99);
    m "shard.cpu_per_wall" "ratio" (rd.serve_cpu_s /. rd.serve_s);
    e "mailbox.dropped_frac" "ratio" (Common.ratio r.Driver.dropped inj);
    e "actor.dead_letter_frac" "ratio" (Common.ratio r.Driver.dead_letter inj);
    e "actor.failed_unlabelled_frac" "ratio"
      (Common.ratio (r.Driver.failed - r.Driver.dropped - r.Driver.dead_letter) inj);
    e "obj_cache.hit_rate" "ratio" (Common.ratio tl.Tally.hits lookups);
    e "obj_cache.stale_rate" "ratio" (Common.ratio tl.Tally.stale lookups);
    e "obj_cache.fills_per_req" "1/req" (Common.ratio tl.Tally.fills inj);
    e "obj_cache.hint_fills_per_req" "1/req" (Common.ratio tl.Tally.hint_fills inj);
    e "obj_cache.hint_yield" "ratio" (Common.ratio tl.Tally.hint_hits tl.Tally.hint_fills);
  ]

let check_accounting rd =
  let r = rd.res in
  let ok = r.Driver.injected = r.Driver.completed + r.Driver.failed in
  ( "accounting",
    ok,
    Printf.sprintf "injected %d = completed %d + failed %d" r.Driver.injected
      r.Driver.completed r.Driver.failed )

let print_counts rd =
  let r = rd.res in
  Common.say
    "  placement %.3f s; %d requests: completed %d, failed %d (dropped %d, \
     dead-letter %d, unlabelled %d), delivered %d, churn %d kills / %d joins, \
     %d barriers, %d latency samples"
    rd.placement_s r.Driver.injected r.Driver.completed r.Driver.failed
    r.Driver.dropped r.Driver.dead_letter
    (r.Driver.failed - r.Driver.dropped - r.Driver.dead_letter)
    r.Driver.delivered r.Driver.kills r.Driver.joins r.Driver.barriers
    (Hist.total r.Driver.hist_v)

let summarize rd =
  print_counts rd;
  let r = rd.res in
  {
    Runner.setup_s = rd.setup_s;
    setup_cpu_s = rd.setup_cpu_s;
    measured_s = rd.serve_s;
    measured_cpu_s = rd.serve_cpu_s;
    round_s = rd.round_s;
    progress = rd.progress;
    ops = r.Driver.injected;
    attempted = r.Driver.injected;
    failed = r.Driver.failed;
    signature = Driver.signature r;
    exact =
      exact_metrics r
      @ [
          Common.m ~exact:true "latency_samples" "count"
            (float_of_int (Hist.total r.Driver.hist_v));
        ];
    checks = [ check_accounting rd ];
  }

(* Per-layer metrics of the traced round: the engine's own counters and
   wall stamps, microbenches on its mesh, then the sync-tier membership
   probe on the same mesh. *)
let layers ~seed rd _sp =
  let own = serve_layer_metrics rd in
  let micro = Probe.micro_metrics rd.net ~seed in
  let psp = Spans.create ~enabled:true and psc = Probe.sync_create () in
  Probe.membership_probe psp psc rd.net ~seed ~k:8 ~locates:2000 ~publishes:200;
  own @ Probe.sync_metrics psp psc @ micro

let run ~rounds ~traced spec ~seed =
  Runner.run ~rounds ~traced
    {
      Runner.round = (fun sp -> round ~sp spec ~seed);
      summarize;
      audit;
      layers = layers ~seed;
    }
