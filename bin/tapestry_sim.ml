(* Command-line driver for the Tapestry reproduction: run experiments, build
   networks and inspect them, or trace a single publish/locate. *)

open Cmdliner

let mode_conv =
  let parse = function
    | "quick" -> Ok Evaluation.Experiment.Quick
    | "full" -> Ok Evaluation.Experiment.Full
    | s -> Error (`Msg ("unknown mode: " ^ s))
  in
  let print ppf m =
    Format.pp_print_string ppf
      (match m with Evaluation.Experiment.Quick -> "quick" | Full -> "full")
  in
  Arg.conv (parse, print)

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let mode_arg =
  Arg.(
    value
    & opt mode_conv Evaluation.Experiment.Quick
    & info [ "mode" ] ~docv:"MODE" ~doc:"Experiment scale: quick or full.")

let domains_arg =
  Arg.(
    value & opt int 1
    & info [ "domains" ] ~docv:"D"
        ~doc:
          "Run parallelizable experiments on D domains (cores). Output is \
           bit-identical to D=1; 0 means the runtime's recommended count.")

(* --- exp --- *)

let exp_cmd =
  let names =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"EXPERIMENT"
          ~doc:
            ("Experiments to run (default all). Known: "
            ^ String.concat ", " Evaluation.Experiment.names))
  in
  let csv_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"DIR" ~doc:"Also write each table as CSV into DIR.")
  in
  let run seed mode domains csv names =
    let domains =
      if domains = 0 then Simnet.Parallel.recommended () else domains
    in
    try
      (match csv with
      | None -> Evaluation.Experiment.run_and_print ~seed ~domains mode names
      | Some dir ->
          if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
          let names =
            match names with [] -> Evaluation.Experiment.names | _ :: _ -> names
          in
          List.iter
            (fun name ->
              let ts = Evaluation.Experiment.by_name ~seed ~domains mode name in
              List.iteri
                (fun i t ->
                  Simnet.Stats.Table.print t;
                  let file =
                    Filename.concat dir
                      (if i = 0 then name ^ ".csv"
                       else Printf.sprintf "%s_%d.csv" name i)
                  in
                  let oc = open_out file in
                  output_string oc (Simnet.Stats.Table.to_csv t);
                  close_out oc;
                  Printf.printf "wrote %s\n" file)
                ts)
            names);
      Ok ()
    with Invalid_argument msg -> Error (`Msg msg)
  in
  Cmd.v
    (Cmd.info "exp" ~doc:"Run reproduction experiments and print their tables.")
    Term.(
      term_result (const run $ seed_arg $ mode_arg $ domains_arg $ csv_arg $ names))

(* --- build --- *)

let topology_conv =
  let parse s =
    match
      List.find_opt
        (fun k -> Simnet.Topology.kind_name k = s)
        Simnet.Topology.all_kinds
    with
    | Some k -> Ok k
    | None -> Error (`Msg ("unknown topology: " ^ s))
  in
  Arg.conv (parse, fun ppf k -> Format.pp_print_string ppf (Simnet.Topology.kind_name k))

let build_cmd =
  let n_arg =
    Arg.(value & opt int 256 & info [ "n"; "size" ] ~docv:"N" ~doc:"Number of nodes.")
  in
  let topo_arg =
    Arg.(
      value
      & opt topology_conv Simnet.Topology.Uniform_square
      & info [ "topology" ] ~docv:"KIND"
          ~doc:"Topology kind (uniform-square, uniform-torus, grid, ring, clustered, star, random-metric).")
  in
  let audit_arg =
    Arg.(
      value & flag
      & info [ "audit" ]
          ~doc:
            "Run the full mesh invariant audit (Properties 1/2, backpointer \
             symmetry, pointer expiry, owner presence) on the built network \
             and fail on any violation.")
  in
  let run seed n kind audit =
    let open Tapestry in
    let rng = Simnet.Rng.create seed in
    let metric = Simnet.Topology.generate kind ~n ~rng in
    let addrs = List.init n (fun i -> i) in
    let t0 = Sys.time () in
    let net, reports = Insert.build_incremental ~seed:(seed + 1) Config.default metric ~addrs in
    let dt = Sys.time () -. t0 in
    Printf.printf "built %d nodes on %s in %.2fs (cpu)\n" n (Simnet.Topology.kind_name kind) dt;
    let msgs =
      List.map (fun (r : Insert.report) -> float_of_int r.Insert.cost.Simnet.Cost.messages) reports
    in
    Format.printf "insert messages: %a@." Simnet.Stats.pp_summary (Simnet.Stats.summarize msgs);
    let space =
      Network.alive_nodes net
      |> List.map (fun (nd : Node.t) -> float_of_int (Routing_table.entry_count nd.Node.table))
    in
    Format.printf "table entries/node: %a@." Simnet.Stats.pp_summary (Simnet.Stats.summarize space);
    let v1 = Network.check_property1 net in
    Printf.printf "property 1 violations: %d\n" (List.length v1);
    let total = ref 0 and optimal = ref 0 in
    Network.check_property2 net ~total ~optimal;
    Printf.printf "property 2 optimal primaries: %d/%d\n" !optimal !total;
    let rng2 = Simnet.Rng.create (seed + 2) in
    Printf.printf "expansion constant (est.): %.2f\n"
      (Simnet.Metric.expansion_estimate metric ~samples:200 ~rng:rng2);
    if audit then begin
      let report = Audit.run net in
      Format.printf "%a@." Audit.pp_report report;
      if not (Audit.is_clean report) then
        Error (`Msg "audit found invariant violations")
      else Ok ()
    end
    else Ok ()
  in
  Cmd.v
    (Cmd.info "build" ~doc:"Build a network incrementally and report its health.")
    Term.(term_result (const run $ seed_arg $ n_arg $ topo_arg $ audit_arg))

(* --- trace --- *)

let trace_cmd =
  let n_arg = Arg.(value & opt int 128 & info [ "n"; "size" ] ~docv:"N" ~doc:"Network size.") in
  let run seed n =
    let open Tapestry in
    let rng = Simnet.Rng.create seed in
    let metric = Simnet.Topology.generate Simnet.Topology.Uniform_square ~n ~rng in
    let addrs = List.init n (fun i -> i) in
    let net, _ = Insert.build_incremental ~seed:(seed + 1) Config.default metric ~addrs in
    let cfg = net.Network.config in
    let server = Network.random_alive net in
    let guid = Node_id.random ~base:cfg.Config.base ~len:cfg.Config.id_digits net.Network.rng in
    let outcome = Publish.publish net ~server guid in
    Printf.printf "object %s published by %s; root %s (path %d hops)\n"
      (Node_id.to_string guid)
      (Node_id.to_string server.Node.id)
      (Node_id.to_string (List.hd outcome.Publish.roots).Node.id)
      (List.hd outcome.Publish.path_lengths);
    let client = Network.random_alive net in
    let res, cost = Network.measure net (fun () -> Locate.locate net ~client guid) in
    (match res.Locate.server with
    | Some s ->
        Printf.printf "client %s located replica at %s\n"
          (Node_id.to_string client.Node.id) (Node_id.to_string s.Node.id);
        Printf.printf "walk: %s\n"
          (String.concat " -> "
             (List.map (fun (h : Node.t) -> Node_id.to_string h.Node.id) res.Locate.walk));
        Printf.printf "cost: %d msgs, %d hops, %.4f latency (optimal %.4f)\n"
          cost.Simnet.Cost.messages cost.Simnet.Cost.hops cost.Simnet.Cost.latency
          (Network.dist net client server)
    | None -> Printf.printf "object not found\n")
  in
  Cmd.v
    (Cmd.info "trace" ~doc:"Publish one object and trace a locate for it.")
    Term.(const run $ seed_arg $ n_arg)

(* --- scale --- *)

let scale_cmd =
  let sizes_arg =
    Arg.(
      value
      & opt (list int) [ 100_000; 300_000; 1_000_000 ]
      & info [ "sizes" ] ~docv:"N,N,.."
          ~doc:
            "Comma-separated mesh sizes, run in order (each network is \
             dropped before the next, so peak residency is one mesh).")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) (Some "BENCH_scale.json")
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "Write machine-readable results (tapestry-bench/1 schema with a \
             \"scale\" array); \"-\" disables.")
  in
  let objects_arg =
    Arg.(
      value & opt int 1000
      & info [ "objects" ] ~docv:"K" ~doc:"Objects published per size.")
  in
  let queries_arg =
    Arg.(
      value & opt int 2000
      & info [ "queries" ] ~docv:"K" ~doc:"Locate queries sampled per size.")
  in
  let audit_arg =
    Arg.(
      value & flag
      & info [ "audit" ]
          ~doc:
            "Run the full invariant audit on each mesh (adds minutes at \
             10^6 nodes) and fail on any violation.")
  in
  let run seed domains sizes json objects queries audit =
    let domains =
      if domains = 0 then Simnet.Parallel.recommended () else domains
    in
    match sizes with
    | [] -> Error (`Msg "scale: no sizes given")
    | _ :: _ ->
      let progress msg = Printf.eprintf "[scale] %s\n%!" msg in
      let points, table =
        Evaluation.Experiment.scale ~seed ~domains ~now:Unix.gettimeofday
          ~objects ~queries ~audit ~progress ~sizes ()
      in
      Simnet.Stats.Table.print table;
      (match json with
      | None | Some "-" -> ()
      | Some file ->
          let open Simnet.Json in
          let sp (p : Evaluation.Experiment.scale_point) =
            let s = p.Evaluation.Experiment.sp_stats in
            let open Tapestry.Static_build in
            Obj
              [
                ("n", Int p.Evaluation.Experiment.sp_n);
                ("build_wall_s", Float p.Evaluation.Experiment.sp_build_wall_s);
                ("wall_s", Float p.Evaluation.Experiment.sp_wall_s);
                ("insert_msgs_mean", Float s.msgs.mean);
                ("insert_msgs_late_mean", Float s.msgs_late.mean);
                ("insert_fit_c", Float p.Evaluation.Experiment.sp_insert_fit_c);
                ("insert_hops_mean", Float s.hops.mean);
                ("multicast_reached_mean", Float s.multicast_reached.mean);
                ("pointers_transferred", Int s.pointers_transferred);
                ("entries_per_node", Float s.entries.mean);
                ("backpointers_per_node", Float s.backpointers.mean);
                ("locate_hops", Float p.Evaluation.Experiment.sp_locate_hops);
                ( "locate_success",
                  Float p.Evaluation.Experiment.sp_locate_success );
                ("stretch_mean", Float p.Evaluation.Experiment.sp_stretch_mean);
                ("stretch_p95", Float p.Evaluation.Experiment.sp_stretch_p95);
                ( "footprint_total_bytes",
                  Int s.footprint.Tapestry.Network.total_bytes );
                ( "bytes_per_node",
                  Float p.Evaluation.Experiment.sp_bytes_per_node );
                ("peak_rss_kb", Int p.Evaluation.Experiment.sp_peak_rss_kb);
                ( "gc_top_heap_words",
                  Int p.Evaluation.Experiment.sp_gc_top_heap_words );
                ("minor_words", Float p.Evaluation.Experiment.sp_minor_words);
                ( "audit_violations",
                  match p.Evaluation.Experiment.sp_audit_violations with
                  | Some v -> Int v
                  | None -> Null );
              ]
          in
          let doc =
            Obj
              [
                ("schema", String "tapestry-bench/1");
                ("seed", Int seed);
                ("domains", Int domains);
                ("micro", List []);
                ("tables", List []);
                ("scale", List (List.map sp points));
              ]
          in
          let oc = open_out file in
          output_string oc (to_string doc);
          close_out oc;
          Printf.printf "wrote %s\n" file);
      let dirty =
        List.exists
          (fun (p : Evaluation.Experiment.scale_point) ->
            match p.Evaluation.Experiment.sp_audit_violations with
            | Some v -> v > 0
            | None -> false)
          points
      in
      if dirty then Error (`Msg "scale: audit found invariant violations")
      else Ok ()
  in
  Cmd.v
    (Cmd.info "scale"
       ~doc:
         "Streamed 10^5-10^6-node construction re-measuring the E1/E2/E4 \
          claims, with wall-clock and resident-size accounting.")
    Term.(
      term_result
        (const run $ seed_arg $ domains_arg $ sizes_arg $ json_arg
       $ objects_arg $ queries_arg $ audit_arg))

(* --- serve --- *)

let serve_cmd =
  let n_arg =
    Arg.(
      value & opt int 65_536
      & info [ "n"; "size" ] ~docv:"N" ~doc:"Mesh size (streamed build).")
  in
  let requests_arg =
    Arg.(
      value & opt int 1_000_000
      & info [ "requests" ] ~docv:"R" ~doc:"Total requests to serve.")
  in
  let rate_arg =
    Arg.(
      value & opt float 50_000.
      & info [ "rate" ] ~docv:"RPS"
          ~doc:"Aggregate arrival rate, requests per virtual second.")
  in
  let zipf_arg =
    Arg.(
      value & opt float 0.9
      & info [ "zipf" ] ~docv:"S" ~doc:"Zipf popularity exponent (0 = uniform).")
  in
  let objects_arg =
    Arg.(
      value & opt int 10_000
      & info [ "objects" ] ~docv:"K" ~doc:"Distinct objects (popularity ranks).")
  in
  let publish_arg =
    Arg.(
      value & opt float 0.05
      & info [ "publish" ] ~docv:"P" ~doc:"Publish fraction of the mix.")
  in
  let unpublish_arg =
    Arg.(
      value & opt float 0.01
      & info [ "unpublish" ] ~docv:"P" ~doc:"Unpublish fraction of the mix.")
  in
  let service_arg =
    Arg.(
      value & opt float 1e-4
      & info [ "service" ] ~docv:"S"
          ~doc:"Virtual seconds of actor work per message (queueing knob).")
  in
  let latency_arg =
    Arg.(
      value & opt float 1e-5
      & info [ "latency" ] ~docv:"S"
          ~doc:"Virtual seconds per unit of metric distance.")
  in
  let window_arg =
    Arg.(
      value & opt float 0.02
      & info [ "window" ] ~docv:"S" ~doc:"Barrier window width, virtual seconds.")
  in
  let mailbox_arg =
    Arg.(
      value & opt int 64
      & info [ "mailbox-cap" ] ~docv:"C"
          ~doc:"Bounded mailbox capacity (overflow drops the newcomer).")
  in
  let kill_arg =
    Arg.(
      value & opt float 0.
      & info [ "kill-rate" ] ~docv:"R" ~doc:"Node failures per virtual second.")
  in
  let join_arg =
    Arg.(
      value & opt float 0.
      & info [ "join-rate" ] ~docv:"R" ~doc:"Churn joins per virtual second.")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) (Some "BENCH_serve.json")
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "Write machine-readable results (tapestry-bench/1 schema with a \
             \"serve\" array); \"-\" disables.")
  in
  let audit_arg =
    Arg.(
      value & flag
      & info [ "audit" ]
          ~doc:
            "Quiesce the mesh after the run (repair, expire) and run the \
             full invariant audit (including cache coherence when a cache \
             is attached); fail on any violation.")
  in
  let cache_arg =
    Arg.(
      value & opt string "0"
      & info [ "cache-size" ] ~docv:"W[,W...]"
          ~doc:
            "Per-node object-cache ways; 0 disables caching (bit-identical \
             to the uncached engine).  A comma-separated list serves one \
             row per size, reusing the built mesh across zero-churn rows.")
  in
  let coop_arg =
    Arg.(
      value & opt string "0"
      & info [ "coop" ] ~docv:"B[,B...]"
          ~doc:
            "Cooperative hint exchange (0 = off, 1 = on).  A comma-separated \
             list crosses with --cache-size: one row per (size, coop) pair; \
             coop=1 is skipped for cache-size 0 (it needs a cache).")
  in
  let run seed domains n requests rate zipf objects publish unpublish service
      latency window mailbox_cap kill_rate join_rate json audit cache_sizes
      coop_list =
    let open Tapestry in
    let int_list s =
      try
        String.split_on_char ',' s
        |> List.map String.trim
        |> List.filter (fun s -> s <> "")
        |> List.map int_of_string
      with _ -> []
    in
    let cache_sizes = int_list cache_sizes in
    let coop_list = int_list coop_list in
    match (cache_sizes, coop_list) with
    | [], _ ->
        Error (`Msg "serve: --cache-size expects a comma-separated int list")
    | _, [] -> Error (`Msg "serve: --coop expects a comma-separated 0/1 list")
    | _, cs when List.exists (fun c -> c <> 0 && c <> 1) cs ->
        Error (`Msg "serve: --coop entries must be 0 or 1")
    | cache_sizes, coop_list ->
      (* resolve here so build and serve agree and the JSON records the
         actual fold width *)
      let domains =
        if domains = 0 then Simnet.Parallel.recommended () else domains
      in
      let rng = Simnet.Rng.create seed in
      let metric =
        Simnet.Topology.generate Simnet.Topology.Uniform_square ~n ~rng
      in
      (* soft state must outlive the run: locates past the TTL would find
         an expired (auto-clean but empty) mesh *)
      let duration_est = float_of_int requests /. rate in
      let ttl =
        Float.max Config.default.Config.pointer_ttl (4. *. duration_est)
      in
      let cfg = { Config.default with Config.pointer_ttl = ttl } in
      let progress inserted total =
        if inserted = total then
          Printf.eprintf "[serve] built %d nodes\n%!" total
      in
      let build () =
        let t0 = Unix.gettimeofday () in
        let net, _ =
          Static_build.build_streamed ~seed:(seed + 1) ~domains cfg metric
            ~n
            ~progress:(fun ~inserted ~total -> progress inserted total)
        in
        let build_wall = Unix.gettimeofday () -. t0 in
        Printf.eprintf "[serve] build took %.1fs\n%!" build_wall;
        (net, build_wall)
      in
      let net0, build_wall0 = build () in
      (* serve rows may reuse the mesh: the run only mutates soft state
         (pointers, replicas, caches, clock) unless churn kills or joins
         nodes, and the driver's RNG draws are restorable from a snapshot
         — so a reset row replays exactly as a fresh build would *)
      let rng_snap = Simnet.Rng.copy net0.Network.rng in
      let churned = kill_rate > 0. || join_rate > 0. in
      let cur = ref (Some (net0, build_wall0)) in
      let next_mesh () =
        match !cur with
        | Some (net, bw) ->
            cur := None;
            (net, bw)
        | None ->
            if churned then build ()
            else begin
              let net = net0 in
              Network.clear_soft_state net;
              net.Network.rng <- Simnet.Rng.copy rng_snap;
              (net, 0.)
            end
      in
      let failures = ref [] in
      (* row per (cache-size, coop) pair; coop needs a cache, so the
         coop=1 column is skipped at cache-size 0 *)
      let points =
        List.concat_map
          (fun cache_size ->
            List.filter_map
              (fun coop ->
                if coop = 1 && cache_size <= 0 then None
                else Some (cache_size, coop = 1))
              coop_list)
          cache_sizes
      in
      let rows =
        List.map
          (fun (cache_size, coop) ->
            let net, build_wall = next_mesh () in
            let params =
              {
                Serve.Driver.seed;
                requests;
                rate;
                zipf_s = zipf;
                objects;
                p_publish = publish;
                p_unpublish = unpublish;
                latency;
                service;
                ttl;
                window;
                mailbox_cap;
                kill_rate;
                join_rate;
                domains;
                cache_size;
                coop;
              }
            in
            let r =
              Serve.Driver.run ~clock:Unix.gettimeofday ~net params
                ~now:Unix.gettimeofday
            in
            let open Serve.Driver in
            let qv p = Simnet.Stats.Hist.quantile r.hist_v p in
            let qw p = Simnet.Stats.Hist.quantile r.hist_w p in
            let throughput = float_of_int r.injected /. r.wall_s in
            let tl = r.tally in
            let lookups = Simnet.Stats.Tally.lookups tl in
            let hit_rate = Simnet.Stats.Tally.hit_rate tl in
            let dpr =
              if r.injected = 0 then 0.
              else float_of_int r.delivered /. float_of_int r.injected
            in
            Printf.printf
              "served %d requests over n=%d in %.2fs wall (%.0f req/s, \
               %d barriers, %.2f virtual s, cache=%d%s)\n"
              r.injected n r.wall_s throughput r.barriers r.duration_v
              cache_size
              (if coop then ", coop" else "");
            Printf.printf
              "  completed %d, failed %d (dropped %d, dead-letter %d), \
               delivered %d msgs (%.2f/req), churn %d kills / %d joins\n"
              r.completed r.failed r.dropped r.dead_letter r.delivered dpr
              r.kills r.joins;
            if cache_size > 0 then
              Printf.printf
                "  cache: %d lookups, hit-rate %.3f (%d hits / %d miss / \
                 %d stale), %d fills, %d evicts, %d recoveries\n"
                lookups hit_rate tl.Simnet.Stats.Tally.hits
                tl.Simnet.Stats.Tally.misses tl.Simnet.Stats.Tally.stale
                tl.Simnet.Stats.Tally.fills tl.Simnet.Stats.Tally.evicts
                tl.Simnet.Stats.Tally.recoveries;
            if coop then
              Printf.printf "  coop: %d hint fills, %d hint hits\n"
                tl.Simnet.Stats.Tally.hint_fills
                tl.Simnet.Stats.Tally.hint_hits;
            (let l = r.engine.Serve.Shard.ledger in
             let open Serve.Shard in
             Printf.printf
               "  wall ledger s: setup %.3f  drain %.3f  flush %.3f  repair \
                %.3f  intents %.3f  digest %.3f  churn %.3f  collect %.3f  \
                (sum %.3f of %.3f)\n"
               l.setup l.drain l.flush l.repair l.intents l.digest l.churn
               l.collect
               (l.setup +. l.drain +. l.flush +. l.repair +. l.intents
              +. l.digest +. l.churn +. l.collect)
               r.wall_s);
            Printf.printf
              "  virtual latency p50 %.6f  p90 %.6f  p99 %.6f  p999 %.6f\n"
              (qv 0.50) (qv 0.90) (qv 0.99) (qv 0.999);
            Printf.printf
              "  wall latency    p50 %.6f  p90 %.6f  p99 %.6f  p999 %.6f\n"
              (qw 0.50) (qw 0.90) (qw 0.99) (qw 0.999);
            (* the run's exact behaviour as one hash: equal across commits
               iff every counter and virtual quantile is *)
            Printf.printf "  signature md5 %s\n"
              (Digest.to_hex (Digest.string (signature r)));
            let audit_violations =
              if audit then begin
                Serve.Shard.quiesce r.engine ~clock:(r.duration_v +. 1.);
                let report = Audit.run net in
                Format.printf "%a@." Audit.pp_report report;
                let v = List.length report.Audit.violations in
                if v > 0 then
                  failures :=
                    Printf.sprintf "cache=%d coop=%b: %d audit violations"
                      cache_size coop v
                    :: !failures;
                Some v
              end
              else None
            in
            let open Simnet.Json in
            Obj
              [
                ("n", Int n);
                ("requests", Int requests);
                ("rate", Float rate);
                ("zipf_s", Float zipf);
                ("objects", Int objects);
                ("p_publish", Float publish);
                ("p_unpublish", Float unpublish);
                ("service", Float service);
                ("latency", Float latency);
                ("window", Float window);
                ("mailbox_cap", Int mailbox_cap);
                ("kill_rate", Float kill_rate);
                ("join_rate", Float join_rate);
                ("cache_size", Int cache_size);
                ("coop", Int (if coop then 1 else 0));
                ("build_wall_s", Float build_wall);
                ("wall_s", Float r.wall_s);
                ("duration_v", Float r.duration_v);
                ("throughput_rps", Float throughput);
                ("p50_virtual", Float (qv 0.50));
                ("p90_virtual", Float (qv 0.90));
                ("p99_virtual", Float (qv 0.99));
                ("p999_virtual", Float (qv 0.999));
                ("p50_wall", Float (qw 0.50));
                ("p99_wall", Float (qw 0.99));
                ("p999_wall", Float (qw 0.999));
                ("injected", Int r.injected);
                ("completed", Int r.completed);
                ("failed", Int r.failed);
                ("dropped", Int r.dropped);
                ("dead_letter", Int r.dead_letter);
                ("delivered", Int r.delivered);
                ("delivered_per_request", Float dpr);
                ("cache_hits", Int tl.Simnet.Stats.Tally.hits);
                ("cache_misses", Int tl.Simnet.Stats.Tally.misses);
                ("cache_stale", Int tl.Simnet.Stats.Tally.stale);
                ("cache_fills", Int tl.Simnet.Stats.Tally.fills);
                ("cache_evicts", Int tl.Simnet.Stats.Tally.evicts);
                ("recovered", Int tl.Simnet.Stats.Tally.recoveries);
                ("hint_fills", Int tl.Simnet.Stats.Tally.hint_fills);
                ("hint_hits", Int tl.Simnet.Stats.Tally.hint_hits);
                ("cache_hit_rate", Float hit_rate);
                ("kills", Int r.kills);
                ("joins", Int r.joins);
                ("barriers", Int r.barriers);
                ( "audit_violations",
                  match audit_violations with Some v -> Int v | None -> Null
                );
              ])
          points
      in
      (match json with
      | None | Some "-" -> ()
      | Some file ->
          let open Simnet.Json in
          let doc =
            Obj
              [
                ("schema", String "tapestry-bench/1");
                ("seed", Int seed);
                ("domains", Int domains);
                ("micro", List []);
                ("tables", List []);
                ("scale", List []);
                ("serve", List rows);
              ]
          in
          let oc = open_out file in
          output_string oc (to_string doc);
          close_out oc;
          Printf.printf "wrote %s\n" file);
      (match !failures with
      | [] -> Ok ()
      | fs ->
          Error
            (`Msg
              ("serve: audit found invariant violations ("
              ^ String.concat "; " (List.rev fs)
              ^ ")")))
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Actor-model serving runtime: domain-sharded mailboxes driving a \
          Zipf locate/publish mix with p50/p99/p999 latency accounting and \
          an optional per-node object-pointer cache.")
    Term.(
      term_result
        (const run $ seed_arg $ domains_arg $ n_arg $ requests_arg $ rate_arg
       $ zipf_arg $ objects_arg $ publish_arg $ unpublish_arg $ service_arg
       $ latency_arg $ window_arg $ mailbox_arg $ kill_arg $ join_arg
       $ json_arg $ audit_arg $ cache_arg $ coop_arg))

let main =
  Cmd.group
    (Cmd.info "tapestry_sim" ~version:"1.0.0"
       ~doc:"Reproduction of 'Distributed Object Location in a Dynamic Network'.")
    [ exp_cmd; build_cmd; trace_cmd; scale_cmd; serve_cmd ]

let () = exit (Cmd.eval main)
