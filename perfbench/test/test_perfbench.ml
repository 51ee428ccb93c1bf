(* Smoke-scale self-tests of the benchmark harness: exact metrics repeat
   for a seed, the serve signature does not depend on the domain count,
   span self times account for the traced wall time, and the per-layer
   metrics respond to the inputs that should move them. *)

open Perfbench

let small_hot ?(requests = 20_000) ?(cache_ways = 64) () =
  { (Serve_wl.hot ~requests) with Serve_wl.n = 512; cache_ways; coop = cache_ways > 0 }

let small_churn ~domains =
  {
    (Serve_wl.cold_churn ~requests:20_000) with
    Serve_wl.n = 512;
    objects = 2_000;
    domains;
  }

let small_join_leave =
  { (Join_leave.default ~events:96) with Join_leave.n = 512; spare = 64; objects = 200; maintain_every = 32 }

let bits ms =
  List.filter_map
    (fun x ->
      if x.Common.exact then Some (x.Common.name, Int64.bits_of_float x.Common.value) else None)
    ms

let check_bits msg a b =
  Alcotest.(check (list (pair string int64))) msg (bits a) (bits b)

let metric ms name = Common.find_metric ms name

(* ---- determinism ---- *)

let serve_exact_repeat () =
  let spec = small_hot () in
  let a = Serve_wl.summarize (Serve_wl.round spec ~seed:7) in
  let b = Serve_wl.summarize (Serve_wl.round spec ~seed:7) in
  Alcotest.(check string) "signature" a.Runner.signature b.Runner.signature;
  check_bits "exact metrics" a.Runner.exact b.Runner.exact;
  Alcotest.(check bool) "some exact metrics" true (bits a.Runner.exact <> [])

let join_leave_exact_repeat () =
  let a = Join_leave.summarize (Join_leave.round small_join_leave ~seed:3) in
  let b = Join_leave.summarize (Join_leave.round small_join_leave ~seed:3) in
  Alcotest.(check string) "signature" a.Runner.signature b.Runner.signature;
  check_bits "exact metrics" a.Runner.exact b.Runner.exact;
  Alcotest.(check int) "no wrong answers" 0
    (int_of_float (metric a.Runner.exact "wrong_answers"))

let domains_invariant () =
  let sig_at domains =
    (Serve_wl.round (small_churn ~domains) ~seed:11).Serve_wl.res |> Serve.Driver.signature
  in
  Alcotest.(check string) "Driver.signature, domains 1 vs 2" (sig_at 1) (sig_at 2)

let interpolated_quantile_in_bucket () =
  let h = (Serve_wl.round (small_hot ()) ~seed:7).Serve_wl.res.Serve.Driver.hist_v in
  List.iter
    (fun p ->
      let lo = Simnet.Stats.Hist.quantile h p and v = Serve_wl.q h p in
      if not (v >= lo && v <= lo *. (1. +. (1. /. 32.)) *. (1. +. 1e-12)) then
        Alcotest.failf "p=%g: interpolated %g outside the bucket from %g" p v lo)
    [ 0.01; 0.5; 0.9; 0.99; 0.999 ]

(* ---- span algebra ---- *)

let spans_nested () =
  let sp = Spans.create ~enabled:true in
  let spin n = ignore (Sys.opaque_identity (Array.init n float_of_int) : float array) in
  Spans.with_ sp "outer" (fun () ->
      spin 10_000;
      Spans.with_ sp "inner" (fun () -> spin 10_000);
      Spans.with_ sp "inner" (fun () -> spin 10_000));
  let aggs = Spans.aggregate sp in
  let outer = Spans.find aggs "outer" and inner = Spans.find aggs "inner" in
  Alcotest.(check int) "inner calls" 2 inner.Spans.calls;
  let outer_dur = outer.Spans.durations.(0) in
  Alcotest.(check (float 1e-12)) "outer self = duration - children"
    (outer_dur -. Array.fold_left ( +. ) 0. inner.Spans.durations)
    outer.Spans.self_s;
  let disabled = Spans.create ~enabled:false in
  Alcotest.(check int) "disabled records nothing" 42 (Spans.with_ disabled "x" (fun () -> 42));
  Alcotest.(check int) "disabled empty" 0 (List.length (Spans.aggregate disabled))

let spans_add_up name round_of =
  let sp = Spans.create ~enabled:true in
  let wall = round_of sp in
  let aggs = Spans.aggregate sp in
  let self = List.fold_left (fun acc (_, a) -> acc +. a.Spans.self_s) 0. aggs in
  List.iter
    (fun (n, a) ->
      if a.Spans.self_s < -1e-9 then Alcotest.failf "%s: negative self time %g" n a.Spans.self_s)
    aggs;
  let un = Spans.unattributed_frac sp ~wall in
  Alcotest.(check bool) (name ^ ": unattributed in [0,1)") true (un >= 0. && un < 1.);
  Alcotest.(check (float 1e-9)) (name ^ ": self + unattributed = wall") wall (self +. (un *. wall))

let serve_spans_add_up () =
  spans_add_up "serve" (fun sp -> (Serve_wl.round ~sp (small_hot ()) ~seed:5).Serve_wl.round_s)

let join_leave_spans_add_up () =
  spans_add_up "join-leave" (fun sp ->
      (Join_leave.round ~sp small_join_leave ~seed:5).Join_leave.round_s)

(* ---- the throughput estimator ---- *)

let fastest_slices_sum () =
  let summary progress =
    {
      Runner.setup_s = 0.;
      setup_cpu_s = 0.;
      measured_s = 0.;
      measured_cpu_s = 0.;
      round_s = 0.;
      progress;
      ops = 1;
      attempted = 1;
      failed = 0;
      signature = "";
      exact = [];
      checks = [];
    }
  in
  let rounds = [| summary [| 0.; 1.; 3.; 4. |]; summary [| 10.; 12.; 13.; 16. |] |] in
  Alcotest.(check (float 1e-12)) "per-slice minima summed" 3. (Runner.fastest_slices rounds)

let progress_spans name measured progress =
  let n = Array.length progress in
  Alcotest.(check bool) (name ^ ": several slices") true (n > 2);
  for i = 1 to n - 1 do
    if progress.(i) < progress.(i - 1) then Alcotest.failf "%s: stamp %d goes back" name i
  done;
  Alcotest.(check (float 1e-12))
    (name ^ ": stamps span the measured phase")
    measured
    (progress.(n - 1) -. progress.(0))

let serve_progress () =
  let rd = Serve_wl.round (small_hot ()) ~seed:5 in
  progress_spans "serve" rd.Serve_wl.serve_s rd.Serve_wl.progress

let join_leave_progress () =
  let r = Join_leave.round small_join_leave ~seed:5 in
  progress_spans "join-leave" r.Join_leave.measured_s r.Join_leave.progress

(* ---- sensitivity to inputs ---- *)

let layers spec ~seed =
  let sp = Spans.create ~enabled:true in
  let rd = Serve_wl.round ~sp spec ~seed in
  (rd, Serve_wl.layers ~seed rd sp)

let no_cache_zeroes_cache_metrics () =
  let cached, lc = layers (small_hot ()) ~seed:9 in
  let plain, lp = layers (small_hot ~cache_ways:0 ()) ~seed:9 in
  List.iter
    (fun x ->
      let n = x.Common.name in
      if String.length n > 10 && String.sub n 0 10 = "obj_cache." then begin
        Alcotest.(check (float 0.)) (n ^ " at 0 ways") 0. x.Common.value;
        if metric lc n = 0. && not (String.equal n "obj_cache.stale_rate") then
          Alcotest.failf "%s is already 0 with the cache on" n
      end)
    lp;
  let mpo rd = metric (Serve_wl.exact_metrics rd.Serve_wl.res) "msgs_per_op" in
  Alcotest.(check bool) "msgs_per_op rises without the cache" true (mpo plain > mpo cached)

let barriers_scale_with_requests () =
  let b requests =
    let rd = Serve_wl.round (small_hot ~requests ()) ~seed:13 in
    float_of_int rd.Serve_wl.res.Serve.Driver.barriers
  in
  let r = b 40_000 /. b 20_000 in
  if r < 1.7 || r > 2.3 then Alcotest.failf "barriers ratio %.3f for 2x requests" r

(* ---- BENCHMARK.json names exactly what the harness reports ---- *)

let names_in field =
  let ic = open_in "../../BENCHMARK.json" in
  let doc = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Simnet.Json.parse doc with
  | Error e -> Alcotest.failf "BENCHMARK.json: %s" e
  | Ok j -> (
      match Simnet.Json.member field j with
      | Some (Simnet.Json.List xs) ->
          List.map
            (fun x ->
              match Simnet.Json.member "name" x with
              | Some (Simnet.Json.String n) -> n
              | _ -> Alcotest.failf "%s entry without a name" field)
            xs
      | _ -> Alcotest.failf "BENCHMARK.json has no %s list" field)

let benchmark_json_matches () =
  Alcotest.(check (list string)) "end_to_end" (names_in "end_to_end") Common.gated_end_to_end;
  let layer_names o = List.map (fun x -> x.Common.name) o.Common.layer in
  let serve = Serve_wl.run ~rounds:1 ~traced:true (small_hot ()) ~seed:1 in
  let jl = Join_leave.run ~rounds:1 ~traced:true small_join_leave ~seed:1 in
  Alcotest.(check (list string)) "serve per_layer" (names_in "per_layer") (layer_names serve);
  Alcotest.(check (list string)) "join-leave per_layer" (names_in "per_layer") (layer_names jl);
  List.iter
    (fun o ->
      let e2e = List.map (fun x -> x.Common.name) o.Common.e2e in
      List.iter
        (fun n -> if not (List.mem n e2e) then Alcotest.failf "end-to-end %s not reported" n)
        Common.gated_end_to_end)
    [ serve; jl ]

let () =
  Alcotest.run "perfbench"
    [
      ( "determinism",
        [
          Alcotest.test_case "serve exact metrics repeat" `Quick serve_exact_repeat;
          Alcotest.test_case "join-leave exact metrics repeat" `Quick join_leave_exact_repeat;
          Alcotest.test_case "serve signature domains 1 = 2" `Quick domains_invariant;
          Alcotest.test_case "latency quantile stays in its bucket" `Quick
            interpolated_quantile_in_bucket;
        ] );
      ( "spans",
        [
          Alcotest.test_case "nested self time" `Quick spans_nested;
          Alcotest.test_case "serve spans add up to wall" `Quick serve_spans_add_up;
          Alcotest.test_case "join-leave spans add up to wall" `Quick join_leave_spans_add_up;
        ] );
      ( "estimator",
        [
          Alcotest.test_case "fastest slices summed" `Quick fastest_slices_sum;
          Alcotest.test_case "serve progress stamps" `Quick serve_progress;
          Alcotest.test_case "join-leave progress stamps" `Quick join_leave_progress;
        ] );
      ( "sensitivity",
        [
          Alcotest.test_case "0 cache ways zero obj_cache metrics" `Quick
            no_cache_zeroes_cache_metrics;
          Alcotest.test_case "2x requests ~ 2x barriers" `Quick barriers_scale_with_requests;
        ] );
      ( "contract",
        [ Alcotest.test_case "BENCHMARK.json names match" `Quick benchmark_json_matches ] );
    ]
