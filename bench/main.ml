(* Benchmark harness.

   Two halves:

   1. The reproduction tables — one per paper table/figure/theorem claim
      (experiment ids E1..E16, see DESIGN.md section 4 and EXPERIMENTS.md).
      These print the same rows/series the paper reports.

   2. Bechamel microbenchmarks of the core operations (route, publish,
      locate, insert, multicast, Chord lookup, alive sampling, the
      surrogate oracle) on a prebuilt network.

   Run `dune exec bench/main.exe` for the quick profile (CI-sized);
   `dune exec bench/main.exe -- --full` for paper-scale runs;
   `dune exec bench/main.exe -- --only table1,stretch` to select tables;
   `--no-micro` / `--no-tables` skip one half;
   `--domains D` spreads parallelizable tables over D cores (same output);
   `--json FILE` also writes machine-readable results;
   `--check-json FILE` parses a previously written FILE and exits. *)

open Tapestry

let usage =
  "main.exe [--full] [--seed N] [--only a,b,c] [--no-micro]\n\
  \        [--no-tables] [--domains D] [--quota SECONDS] [--json FILE]\n\
  \        [--check-json FILE]"

type options = {
  mutable mode : Evaluation.Experiment.mode;
  mutable seed : int;
  mutable only : string list;
  mutable micro : bool;
  mutable tables : bool;
  mutable domains : int;
  mutable quota : float;
  mutable json : string option;
  mutable check_json : string option;
}

let parse_args () =
  let o =
    {
      mode = Evaluation.Experiment.Quick;
      seed = 42;
      only = [];
      micro = true;
      tables = true;
      domains = 1;
      quota = 0.25;
      json = None;
      check_json = None;
    }
  in
  let rec go = function
    | [] -> ()
    | "--full" :: rest ->
        o.mode <- Evaluation.Experiment.Full;
        go rest
    | "--seed" :: v :: rest ->
        o.seed <- int_of_string v;
        go rest
    | "--only" :: v :: rest ->
        o.only <- String.split_on_char ',' v;
        go rest
    | "--no-micro" :: rest ->
        o.micro <- false;
        go rest
    | "--no-tables" :: rest ->
        o.tables <- false;
        go rest
    | "--domains" :: v :: rest ->
        let d = int_of_string v in
        o.domains <- (if d = 0 then Simnet.Parallel.recommended () else d);
        go rest
    | "--quota" :: v :: rest ->
        o.quota <- float_of_string v;
        go rest
    | "--json" :: v :: rest ->
        o.json <- Some v;
        go rest
    | "--check-json" :: v :: rest ->
        o.check_json <- Some v;
        go rest
    | "--help" :: _ ->
        Printf.printf "usage: %s\nexperiments: %s\n" usage
          (String.concat ", " Evaluation.Experiment.names);
        exit 0
    | other :: _ ->
        Printf.eprintf "unknown argument %s\nusage: %s\n" other usage;
        exit 2
  in
  go (List.tl (Array.to_list Sys.argv));
  o

(* --- Bechamel microbenchmarks --- *)

let micro_tests seed =
  let open Bechamel in
  let n = 256 in
  let rng = Simnet.Rng.create seed in
  let metric = Simnet.Topology.generate Simnet.Topology.Uniform_square ~n ~rng in
  let addrs = List.init n (fun i -> i) in
  let net, _ = Insert.build_incremental ~seed:(seed + 1) Config.default metric ~addrs in
  let cfg = net.Network.config in
  let guids =
    Array.init 64 (fun _ ->
        let server = Network.random_alive net in
        let guid =
          Node_id.random ~base:cfg.Config.base ~len:cfg.Config.id_digits
            net.Network.rng
        in
        ignore (Publish.publish net ~server guid);
        guid)
  in
  let i = ref 0 in
  let next_guid () =
    incr i;
    guids.(!i mod Array.length guids)
  in
  let route_test =
    Test.make ~name:"route_to_root (n=256)"
      (Staged.stage (fun () ->
           let from = Network.random_alive net in
           ignore (Route.route_to_root net ~from (next_guid ()))))
  in
  let locate_test =
    Test.make ~name:"locate (n=256)"
      (Staged.stage (fun () ->
           let client = Network.random_alive net in
           ignore (Locate.locate net ~client (next_guid ()))))
  in
  let publish_test =
    Test.make ~name:"republish (n=256)"
      (Staged.stage (fun () ->
           let server = Network.random_alive net in
           ignore (Publish.republish net ~server (next_guid ()))))
  in
  let multicast_test =
    Test.make ~name:"multicast len-1 prefix (n=256)"
      (Staged.stage (fun () ->
           let anchor = Network.random_alive net in
           let prefix = Node_id.digits anchor.Node.id in
           ignore (Multicast.run net ~start:anchor ~prefix ~len:1 ~apply:ignore)))
  in
  let random_alive_test =
    Test.make ~name:"random_alive (n=256)"
      (Staged.stage (fun () -> ignore (Network.random_alive net)))
  in
  (* The core snapshot is built once, outside the timed closure: [net]'s
     membership does not change, so the row times the query alone. *)
  let core = Verify.core net in
  let surrogate_test =
    Test.make ~name:"surrogate_oracle (n=256)"
      (Staged.stage (fun () ->
           ignore (Verify.surrogate_oracle net core (next_guid ()))))
  in
  (* The Figure 11 watch-list variant: every recipient scans the carried
     hole bitmap.  Rows are refilled per op so every op does the same
     certification work. *)
  let wl = Array.init 2 (fun _ -> Array.make cfg.Config.base true) in
  let reset_wl () =
    Array.iter (fun row -> Array.fill row 0 (Array.length row) true) wl
  in
  let no_hit ~level:_ ~digit:_ (_ : Node.t) = () in
  let multicast_watch_test =
    Test.make ~name:"multicast watchlist len-1 (n=256)"
      (Staged.stage (fun () ->
           reset_wl ();
           let anchor = Network.random_alive net in
           let prefix = Node_id.digits anchor.Node.id in
           ignore
             (Multicast.run ~on_watch_hit:no_hit ~watchlist:wl net
                ~start:anchor ~prefix ~len:1 ~apply:ignore)))
  in
  (* insert+delete cycle on a side network so [net] stays stable *)
  let net2, _ =
    Insert.build_incremental ~seed:(seed + 7) Config.default metric
      ~addrs:(List.init 128 (fun i -> i))
  in
  let insert_test =
    Test.make ~name:"insert+voluntary_delete (n=128)"
      (Staged.stage (fun () ->
           let gw = Network.random_alive net2 in
           let r = Insert.insert net2 ~gateway:gw ~addr:200 in
           ignore (Delete.voluntary net2 r.Insert.node)))
  in
  (* Insertion-path benches at n=256, on their own network (metric widened
     so the churn addr is a fresh point).  Each op inserts then voluntarily
     deletes, so the node count is stable across the run. *)
  let metric3 =
    Simnet.Topology.generate Simnet.Topology.Uniform_square ~n:300 ~rng
  in
  let net3, _ =
    Insert.build_incremental ~seed:(seed + 11) Config.default metric3
      ~addrs:(List.init 256 (fun i -> i))
  in
  let insert256_test =
    Test.make ~name:"insert (n=256)"
      (Staged.stage (fun () ->
           let gw = Network.random_alive net3 in
           let r = Insert.insert net3 ~gateway:gw ~addr:299 in
           ignore (Delete.voluntary net3 r.Insert.node)))
  in
  (* The descent alone, seeded by the surrogate as in a standalone run.
     Every op leaves [net3]'s core set as it found it (the probe is not
     core when the oracle runs, and leaves at the end), so one snapshot
     serves them all. *)
  let core3 = Verify.core net3 in
  let acquire_test =
    Test.make ~name:"acquire_neighbor_table (n=256)"
      (Staged.stage (fun () ->
           let id = Network.fresh_id net3 in
           let probe = Node.create cfg ~id ~addr:299 in
           Network.register net3 probe;
           let surrogate = Verify.surrogate_oracle net3 core3 id in
           ignore
             (Nearest_neighbor.acquire_neighbor_table net3 ~new_node:probe
                ~surrogate ~initial_list:[ surrogate ]);
           Network.activate net3 probe;
           ignore (Delete.voluntary net3 probe)))
  in
  let ch = Baselines.Chord.create ~seed:(seed + 3) ~m:24 ~succ_list:4 metric in
  ignore (Baselines.Chord.bootstrap ch ~addr:0);
  for addr = 1 to n - 1 do
    ignore (Baselines.Chord.join ch ~gateway:(Baselines.Chord.random_node ch) ~addr)
  done;
  Baselines.Chord.stabilize_all ch ~rounds:2;
  let chord_test =
    Test.make ~name:"chord lookup (n=256)"
      (Staged.stage (fun () ->
           let from = Baselines.Chord.random_node ch in
           ignore (Baselines.Chord.lookup ch ~from (!i * 7919 land 0xFFFFFF))))
  in
  [
    route_test; locate_test; publish_test; multicast_test;
    multicast_watch_test; random_alive_test; surrogate_test; insert_test;
    insert256_test; acquire_test; chord_test;
  ]

let run_micro ~quota seed =
  let open Bechamel in
  let tests = micro_tests seed in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~kde:(Some 100) () in
  print_endline "== B1: Bechamel microbenchmarks (ns/op, OLS on monotonic clock) ==";
  List.concat_map
    (fun test ->
      List.map
        (fun elt ->
          let ns =
            try
              let raw = Benchmark.run cfg [ instance ] elt in
              let est = Analyze.one ols instance raw in
              match Analyze.OLS.estimates est with Some (x :: _) -> x | _ -> nan
            with _ -> nan
          in
          Printf.printf "  %-42s %12.0f ns/op\n%!" (Test.Elt.name elt) ns;
          (Test.Elt.name elt, ns))
        (Test.elements test))
    tests

(* --- table half, timed per experiment --- *)

let run_tables o =
  let which =
    match o.only with [] -> Evaluation.Experiment.names | _ :: _ -> o.only
  in
  List.map
    (fun name ->
      let t0 = Sys.time () in
      let tables =
        Evaluation.Experiment.by_name ~seed:o.seed ~domains:o.domains o.mode name
      in
      let dt = Sys.time () -. t0 in
      List.iter Simnet.Stats.Table.print tables;
      print_newline ();
      (name, dt, List.length tables))
    which

(* --- machine-readable results --- *)

let json_schema = "tapestry-bench/1"

let emit_json o ~micro ~tables file =
  let open Simnet.Json in
  let doc =
    Obj
      [
        ("schema", String json_schema);
        ("seed", Int o.seed);
        ( "mode",
          String
            (match o.mode with
            | Evaluation.Experiment.Quick -> "quick"
            | Full -> "full") );
        ("domains", Int o.domains);
        ( "micro",
          List
            (List.map
               (fun (name, ns) ->
                 Obj [ ("name", String name); ("ns_per_op", Float ns) ])
               micro) );
        ( "tables",
          List
            (List.map
               (fun (name, dt, k) ->
                 Obj
                   [
                     ("experiment", String name);
                     ("cpu_seconds", Float dt);
                     ("tables", Int k);
                   ])
               tables) );
      ]
  in
  let oc = open_out file in
  output_string oc (to_string doc);
  close_out oc;
  Printf.printf "wrote %s\n" file

let check_json file =
  let ic = open_in_bin file in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  match Simnet.Json.parse text with
  | Error msg ->
      Printf.eprintf "%s: JSON parse error: %s\n" file msg;
      exit 2
  | Ok doc -> (
      let member = Simnet.Json.member in
      (match member "schema" doc with
      | Some (Simnet.Json.String s) when String.equal s json_schema -> ()
      | _ ->
          Printf.eprintf "%s: missing or unexpected \"schema\"\n" file;
          exit 2);
      match (member "micro" doc, member "tables" doc) with
      | Some (Simnet.Json.List micro), Some (Simnet.Json.List tables) ->
          let named field j =
            match member field j with
            | Some (Simnet.Json.String _) -> true
            | _ -> false
          in
          if not (List.for_all (named "name") micro) then begin
            Printf.eprintf "%s: a micro entry lacks \"name\"\n" file;
            exit 2
          end;
          if not (List.for_all (named "experiment") tables) then begin
            Printf.eprintf "%s: a table entry lacks \"experiment\"\n" file;
            exit 2
          end;
          Printf.printf "%s: ok (%d micro, %d table entries)\n" file
            (List.length micro) (List.length tables)
      | _ ->
          Printf.eprintf "%s: missing \"micro\"/\"tables\" arrays\n" file;
          exit 2)

let () =
  let o = parse_args () in
  match o.check_json with
  | Some file -> check_json file
  | None ->
      let tables = if o.tables then run_tables o else [] in
      let micro =
        if o.micro then run_micro ~quota:o.quota o.seed else []
      in
      Option.iter (emit_json o ~micro ~tables) o.json
