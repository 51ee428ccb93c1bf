(* Exit-code and gate tests for tools/bench_compare.

   One tiny tapestry-bench/1 pair per tier (micro, scale, serve, cache,
   coop).  In each current file one gated metric sits 1% past its
   threshold and another 1% short of it: the comparison must flag exactly
   the first and exit 1, exit 0 under --advisory, and exit 0 once the
   first is pulled back under too.  Info-only fields never gate, and a
   wrong schema or a missing micro section is a configuration error
   (exit 2). *)

let exe =
  List.find Sys.file_exists
    [
      "../tools/bench_compare/bench_compare.exe";
      "_build/default/tools/bench_compare/bench_compare.exe";
    ]

let write_tmp contents =
  let path = Filename.temp_file "bench_compare" ".json" in
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc;
  path

(* Run the binary on two documents; returns the exit code and the
   REGRESSED lines of its report. *)
let run ?(args = []) base cur =
  let b = write_tmp base and c = write_tmp cur in
  let out = Filename.temp_file "bench_compare" ".out" in
  let code =
    Sys.command
      (String.concat " "
         (List.map Filename.quote ((exe :: args) @ [ b; c ]))
      ^ " > " ^ Filename.quote out ^ " 2>&1")
  in
  let ic = open_in_bin out in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  List.iter Sys.remove [ b; c; out ];
  let flagged =
    String.split_on_char '\n' text
    |> List.filter (fun l ->
           String.length l >= 9
           && String.equal (String.sub l (String.length l - 9) 9) "REGRESSED")
  in
  (code, flagged)

let fields kvs =
  "{"
  ^ String.concat ", "
      (List.map (fun (k, v) -> Printf.sprintf "%S: %.17g" k v) kvs)
  ^ "}"

let doc ?(schema = "tapestry-bench/1") ?(micro = Some []) ?(scale = [])
    ?(serve = []) () =
  let arr pts = "[" ^ String.concat ", " (List.map fields pts) ^ "]" in
  let micro_json =
    match micro with
    | None -> ""
    | Some ops ->
        Printf.sprintf "\"micro\": [%s], "
          (String.concat ", "
             (List.map
                (fun (name, ns) ->
                  Printf.sprintf "{\"name\": %S, \"ns_per_op\": %.17g}" name ns)
                ops))
  in
  Printf.sprintf "{\"schema\": %S, %s\"scale\": %s, \"serve\": %s}" schema
    micro_json (arr scale) (arr serve)

(* Worse by [pct] percent in the metric's bad direction. *)
let up v pct = v *. (1. +. (pct /. 100.))
let down v pct = v /. (1. +. (pct /. 100.))

let serve_point ?(cache = 0.) ?(coop = 0.) ~tput ~p99 ~dpr ~hit ~p50 () =
  [
    ("n", 512.); ("zipf_s", 0.9); ("objects", 1000.); ("kill_rate", 0.);
    ("join_rate", 0.); ("cache_size", cache); ("coop", coop);
    ("throughput_rps", tput); ("p50_virtual", p50); ("p99_virtual", p99);
    ("p999_virtual", 0.2); ("delivered_per_request", dpr);
    ("cache_hit_rate", hit); ("wall_s", 1.);
  ]

(* For each tier: the baseline, and the current file with the first
   metric [over]% and the second [under]% worse. *)
let pair tier ~over ~under =
  match tier with
  | `Micro ->
      let ops a b = doc ~micro:(Some [ ("op a", a); ("op b", b) ]) () in
      (ops 1000. 1000., ops (up 1000. over) (up 1000. under))
  | `Scale ->
      let pt ~bpn ~fit =
        [
          ("n", 1024.); ("bytes_per_node", bpn); ("insert_fit_c", fit);
          ("peak_rss_kb", 5e4); ("locate_hops", 3.); ("build_wall_s", 2.);
        ]
      in
      ( doc ~scale:[ pt ~bpn:1000. ~fit:1.2 ] (),
        doc ~scale:[ pt ~bpn:(up 1000. over) ~fit:(up 1.2 under) ] () )
  | `Serve ->
      let pt ~tput ~p99 =
        serve_point ~tput ~p99 ~dpr:3. ~hit:0. ~p50:0.05 ()
      in
      ( doc ~serve:[ pt ~tput:1000. ~p99:0.1 ] (),
        doc ~serve:[ pt ~tput:(down 1000. over) ~p99:(up 0.1 under) ] () )
  | `Cache ->
      let pt ~hit ~p99 =
        serve_point ~cache:32. ~tput:1000. ~p99 ~dpr:3. ~hit ~p50:0.05 ()
      in
      ( doc ~serve:[ pt ~hit:0.5 ~p99:0.1 ] (),
        doc ~serve:[ pt ~hit:(down 0.5 over) ~p99:(up 0.1 under) ] () )
  | `Coop ->
      (* the coop row is also a serve row: 11% more messages per request
         is past the coop gate (10%) but not the serve gate (20%), so it
         is flagged once, by coop *)
      let pt ~dpr ~hit =
        serve_point ~cache:32. ~coop:1. ~tput:1000. ~p99:0.1 ~dpr ~hit
          ~p50:0.05 ()
      in
      ( doc ~serve:[ pt ~dpr:3. ~hit:0.5 ] (),
        doc ~serve:[ pt ~dpr:(up 3. over) ~hit:(down 0.5 under) ] () )

(* tier, threshold %, the tier's column tag and the metric that goes over *)
let tiers =
  [
    (`Micro, 25., "micro", "ns_per_op");
    (`Scale, 15., "scale", "bytes_per_node");
    (`Serve, 20., "serve", "throughput_rps");
    (`Cache, 20., "cache", "cache_hit_rate");
    (`Coop, 10., "coop", "delivered_per_request");
  ]

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s
    && (String.equal (String.sub s i n) sub || go (i + 1))
  in
  go 0

let test_tier (tier, t, tag, metric) () =
  let base, cur = pair tier ~over:(t +. 1.) ~under:(t -. 1.) in
  let code, flagged = run base cur in
  Alcotest.(check int) (tag ^ ": one metric past its threshold exits 1") 1
    code;
  (match flagged with
  | [ line ] ->
      Alcotest.(check bool)
        (tag ^ ": the flagged row is " ^ metric)
        true
        (String.length line >= String.length tag
        && String.equal (String.sub line 0 (String.length tag)) tag
        && contains line metric)
  | _ ->
      Alcotest.failf "%s: expected one flagged row, got %d" tag
        (List.length flagged));
  let code, _ = run ~args:[ "--advisory" ] base cur in
  Alcotest.(check int) (tag ^ ": --advisory exits 0") 0 code;
  let base, cur = pair tier ~over:(t -. 1.) ~under:(t -. 1.) in
  let code, flagged = run base cur in
  Alcotest.(check int) (tag ^ ": both under the threshold exits 0") 0 code;
  Alcotest.(check (list string)) (tag ^ ": nothing flagged") [] flagged

(* The estimated footprint is deterministic, so its serve gate is 5%:
   6% more bytes fails on that row alone, 4% passes. *)
let test_footprint_gate () =
  let pt bytes =
    ("footprint_bytes", bytes)
    :: serve_point ~tput:1000. ~p99:0.1 ~dpr:3. ~hit:0. ~p50:0.05 ()
  in
  let base = doc ~serve:[ pt 1e8 ] () in
  let code, flagged = run base (doc ~serve:[ pt (up 1e8 6.) ] ()) in
  Alcotest.(check int) "6% more footprint exits 1" 1 code;
  (match flagged with
  | [ line ] ->
      Alcotest.(check bool) "the flagged row is footprint_bytes" true
        (contains line "footprint_bytes")
  | _ ->
      Alcotest.failf "expected one flagged row, got %d" (List.length flagged));
  let code, flagged = run base (doc ~serve:[ pt (up 1e8 4.) ] ()) in
  Alcotest.(check int) "4% more footprint exits 0" 0 code;
  Alcotest.(check (list string)) "nothing flagged at 4%" [] flagged

let test_info_never_gates () =
  let pt ~p50 ~wall =
    [
      ("n", 512.); ("zipf_s", 0.9); ("throughput_rps", 1000.);
      ("p50_virtual", p50); ("p99_virtual", 0.1); ("p999_virtual", p50);
      ("wall_s", wall);
    ]
  in
  let spt ~hops ~wall =
    [
      ("n", 1024.); ("bytes_per_node", 1000.); ("locate_hops", hops);
      ("stretch_mean", hops); ("build_wall_s", wall);
    ]
  in
  let base =
    doc ~scale:[ spt ~hops:3. ~wall:2. ] ~serve:[ pt ~p50:0.05 ~wall:1. ] ()
  and cur =
    doc ~scale:[ spt ~hops:30. ~wall:20. ] ~serve:[ pt ~p50:0.5 ~wall:10. ] ()
  in
  let code, flagged = run base cur in
  Alcotest.(check int) "info fields 10x worse exit 0" 0 code;
  Alcotest.(check (list string)) "info fields never flagged" [] flagged

let test_config_errors () =
  let good = doc () in
  let code, _ = run (doc ~schema:"tapestry-bench/0" ()) good in
  Alcotest.(check int) "wrong schema exits 2" 2 code;
  let code, _ = run good (doc ~micro:None ()) in
  Alcotest.(check int) "missing micro section exits 2" 2 code;
  let code, _ = run ~args:[ "--threshold"; "25" ] good good in
  Alcotest.(check int) "a retired threshold flag exits 2" 2 code;
  let code, _ = run good good in
  Alcotest.(check int) "identical files exit 0" 0 code

let () =
  Alcotest.run "bench_compare"
    [
      ( "gates",
        List.map
          (fun ((_, _, tag, _) as t) ->
            Alcotest.test_case (tag ^ " just over / just under") `Quick
              (test_tier t))
          tiers
        @ [
            Alcotest.test_case "serve footprint_bytes gate is 5%" `Quick
              test_footprint_gate;
            Alcotest.test_case "info-only fields never gate" `Quick
              test_info_never_gates;
            Alcotest.test_case "configuration errors exit 2" `Quick
              test_config_errors;
          ] );
    ]
