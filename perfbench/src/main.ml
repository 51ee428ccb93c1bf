(* Benchmark entry point.

     main.exe --workload serve-hot|serve-cold-churn|join-leave --seed N
              --seconds S --trace 0|1

   Prints every metric by name and unit, every correctness check, and
   as its last line one JSON object: the end-to-end metrics gated by
   BENCHMARK.json (trace 0) or the per-layer metrics (trace 1).  See
   perfbench/README.md. *)

open Perfbench

(* Untraced rounds per run; a traced run makes one untraced and one
   traced round instead. *)
let rounds = 3

(* Nominal measured-phase rates on a 2-core x86 host, used only to turn
   --seconds into a fixed amount of work per round, so exact metrics
   depend on the seed and --seconds alone. *)
let serve_hot_rps = 70_000.
let serve_cold_rps = 27_000.
let join_leave_eps = 1000.

let per_round ~seconds ~rate ~quantum =
  let x = float_of_int seconds *. rate /. float_of_int rounds in
  max quantum (quantum * int_of_float (Float.round (x /. float_of_int quantum)))

let usage () =
  prerr_endline
    "usage: main.exe --workload serve-hot|serve-cold-churn|join-leave --seed N \
     --seconds S --trace 0|1";
  exit 2

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1) in
  let rec parse = function
    | "--workload" :: w :: rest ->
        workload := w;
        parse rest
    | "--seed" :: s :: rest ->
        seed := (match int_of_string_opt s with Some v -> v | None -> usage ());
        parse rest
    | "--seconds" :: s :: rest ->
        seconds := (match int_of_string_opt s with Some v -> v | None -> usage ());
        parse rest
    | "--trace" :: t :: rest ->
        trace := (match t with "0" -> 0 | "1" -> 1 | _ -> usage ());
        parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !seed < 0 || !seconds <= 0 || !trace < 0 then usage ();
  let traced = !trace = 1 and seed = !seed and seconds = !seconds in
  let outcome =
    match !workload with
    | "serve-hot" ->
        let requests = per_round ~seconds ~rate:serve_hot_rps ~quantum:1000 in
        Common.say "serve-hot: n=4096, %d requests per round, seed %d" requests seed;
        Serve_wl.run ~rounds ~traced (Serve_wl.hot ~requests) ~seed
    | "serve-cold-churn" ->
        let requests = per_round ~seconds ~rate:serve_cold_rps ~quantum:1000 in
        Common.say "serve-cold-churn: n=4096, %d requests per round, seed %d" requests
          seed;
        Serve_wl.run ~rounds ~traced (Serve_wl.cold_churn ~requests) ~seed
    | "join-leave" ->
        let events = per_round ~seconds ~rate:join_leave_eps ~quantum:2048 in
        Common.say "join-leave: n=4096, %d membership events per round, seed %d" events
          seed;
        Join_leave.run ~rounds ~traced (Join_leave.default ~events) ~seed
    | _ -> usage ()
  in
  let e2e = outcome.Common.e2e in
  List.iter (Common.print_metric ~tag:"metric") e2e;
  List.iter (Common.print_metric ~tag:"layer ") outcome.Common.layer;
  let shown =
    if traced then outcome.Common.layer
    else
      List.map
        (fun name -> List.find (fun x -> String.equal x.Common.name name) e2e)
        Common.gated_end_to_end
  in
  let finite =
    ( "finite-metrics",
      List.for_all (fun x -> Float.is_finite x.Common.value) shown,
      "every reported value is a finite number" )
  in
  let checks = outcome.Common.checks @ [ finite ] in
  List.iter
    (fun (name, ok, detail) -> Common.say "check %-16s %s  %s" name (if ok then "ok" else "FAILED") detail)
    checks;
  let correct = List.for_all (fun (_, ok, _) -> ok) checks in
  let metric_json x =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.Common.name
      (if Float.is_finite x.Common.value then Printf.sprintf "%.17g" x.Common.value else "0")
      x.Common.unit_
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct outcome.Common.attempted outcome.Common.failed
    (String.concat ", " (List.map metric_json shown))
