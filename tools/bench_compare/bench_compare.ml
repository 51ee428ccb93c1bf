(* Diff two bench JSON files (schema tapestry-bench/1) against one gate
   table.

   Usage: bench_compare [--advisory] BASELINE.json CURRENT.json

   A file carries up to three arrays of points: "micro" (required; one
   point per op, keyed by name, written by bench/main.exe), "scale"
   (keyed by n, written by `tapestry_sim scale`) and "serve" (keyed by
   the workload shape, written by `tapestry_sim serve`).  Points present
   in both files are compared metric by metric along the rows of
   [table]: each row names the tier it applies to, the metric, and either
   the direction in which the metric gets worse with a threshold in
   percent, or [Info] (reported, never gated — wall-clock fields measure
   the machine, not the code).  A gated metric regresses when the worse
   ratio (current/baseline when higher is worse, baseline/current when
   lower is worse) exceeds 1 + threshold/100; it is compared only when
   both sides carry it positive.

   Tiers: [Micro] is every micro point, [Scale] every scale point,
   [Serve] every serve point.  [Cache] is the serve points that ran with
   a cache (cache_size > 0): hit rate is meaningless against an uncached
   row.  [Coop] is the cooperative serve points (coop = 1), gated tighter
   on the two metrics hint exchange exists to buy.  The serve key carries
   the cache size and a " coop" suffix, so a cached, a cooperative and a
   plain row of the same shape never alias.

   Exit codes: 0 clean, 1 any gated metric regressed, 2 configuration
   error (bad arguments, an unreadable or mis-schema'd file, no micro
   section).  [--advisory] keeps every report but exits 0 on
   regressions: the escape hatch for noisy shared machines. *)

let usage = "bench_compare [--advisory] BASELINE.json CURRENT.json"

type tier = Micro | Scale | Serve | Cache | Coop
type rule = Higher_worse of float | Lower_worse of float | Info

let tier_name = function
  | Micro -> "micro"
  | Scale -> "scale"
  | Serve -> "serve"
  | Cache -> "cache"
  | Coop -> "coop"

(* The gate table, in report order within each tier. *)
let table =
  [
    (Micro, "ns_per_op", Higher_worse 25.);
    (Scale, "bytes_per_node", Higher_worse 15.);
    (Scale, "insert_fit_c", Higher_worse 15.);
    (Scale, "peak_rss_kb", Higher_worse 15.);
    (Scale, "locate_hops", Info);
    (Scale, "stretch_mean", Info);
    (Scale, "build_wall_s", Info);
    (Serve, "throughput_rps", Lower_worse 20.);
    (Serve, "p50_virtual", Info);
    (Serve, "p99_virtual", Higher_worse 20.);
    (Serve, "p999_virtual", Info);
    (Serve, "delivered_per_request", Higher_worse 20.);
    (Serve, "wall_s", Info);
    (* estimated resident bytes (`memory ledger`): deterministic, so a
       tight threshold gates memory without noise *)
    (Serve, "footprint_bytes", Higher_worse 5.);
    (Cache, "cache_hit_rate", Lower_worse 20.);
    (Coop, "delivered_per_request", Higher_worse 10.);
    (Coop, "cache_hit_rate", Lower_worse 10.);
  ]

let fail fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 2) fmt

let read_file path =
  try
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  with Sys_error e -> fail "bench_compare: %s" e

let load path =
  match Simnet.Json.parse (read_file path) with
  | Error e -> fail "bench_compare: %s: %s" path e
  | Ok j ->
      (match Simnet.Json.member "schema" j with
      | Some (Simnet.Json.String "tapestry-bench/1") -> ()
      | _ -> fail "bench_compare: %s: not a tapestry-bench/1 file" path);
      (match Simnet.Json.member "micro" j with
      | Some (Simnet.Json.List _) -> ()
      | _ -> fail "bench_compare: %s: no micro section" path);
      j

let num = function
  | Simnet.Json.Float v -> Some v
  | Simnet.Json.Int v -> Some (float_of_int v)
  | _ -> None

let get p field = Option.bind (Simnet.Json.member field p) num
let flag p field = Option.value (get p field) ~default:0. > 0.

(* Serve points are keyed by workload shape: same n, Zipf exponent,
   object universe, churn rates, cache size and cooperation must describe
   the same experiment before latency or throughput are comparable.
   Absent axes key as before they existed. *)
let serve_key p n =
  Printf.sprintf "n=%d s=%g%s churn=%g/%g%s%s" (int_of_float n)
    (Option.value (get p "zipf_s") ~default:0.)
    (match get p "objects" with
    | Some k -> Printf.sprintf " obj=%d" (int_of_float k)
    | None -> "")
    (Option.value (get p "kill_rate") ~default:0.)
    (Option.value (get p "join_rate") ~default:0.)
    (match get p "cache_size" with
    | Some c when c > 0. -> Printf.sprintf " cache=%d" (int_of_float c)
    | _ -> "")
    (if flag p "coop" then " coop" else "")

(* The tier's points of one file as (key, point). *)
let points tier doc =
  let array name =
    match Simnet.Json.member name doc with
    | Some (Simnet.Json.List pts) -> pts
    | _ -> []
  in
  let serve keep =
    List.filter_map
      (fun p ->
        match get p "n" with
        | Some n when keep p -> Some (serve_key p n, p)
        | _ -> None)
      (array "serve")
  in
  match tier with
  | Micro ->
      List.filter_map
        (fun p ->
          match Simnet.Json.member "name" p with
          | Some (Simnet.Json.String name) -> Some (name, p)
          | _ -> None)
        (array "micro")
  | Scale ->
      List.filter_map
        (fun p ->
          Option.map
            (fun n -> (Printf.sprintf "n=%d" (int_of_float n), p))
            (get p "n"))
        (array "scale")
  | Serve -> serve (fun _ -> true)
  | Cache -> serve (fun p -> flag p "cache_size")
  | Coop -> serve (fun p -> flag p "coop")

(* Compare one tier; returns how many gated metrics regressed. *)
let compare_tier tier base cur =
  let bpts = points tier base and cpts = points tier cur in
  let rows = List.filter (fun (t, _, _) -> t = tier) table in
  let regressed = ref 0 in
  let both = match (bpts, cpts) with [], _ | _, [] -> false | _ -> true in
  if both then begin
    Printf.printf "\n%-5s %-48s %-22s %12s %12s %8s\n" (tier_name tier)
      "point" "metric" "baseline" "current" "ratio";
    let line key metric b c tail =
      Printf.printf "%-5s %-48s %-22s %12s %12s %s\n" (tier_name tier) key
        metric b c tail
    in
    List.iter
      (fun (key, bp) ->
        match List.assoc_opt key cpts with
        | None -> line key "-" "-" "-" "    gone"
        | Some cp ->
            List.iter
              (fun (_, metric, rule) ->
                match (get bp metric, get cp metric) with
                | Some b, Some c when b > 0. && c > 0. ->
                    let over worse t = worse > 1. +. (t /. 100.) in
                    let tag =
                      match rule with
                      | Info -> "  (info)"
                      | Higher_worse t when over (c /. b) t -> "  REGRESSED"
                      | Lower_worse t when over (b /. c) t -> "  REGRESSED"
                      | Higher_worse _ | Lower_worse _ -> ""
                    in
                    if String.equal tag "  REGRESSED" then incr regressed;
                    line key metric (Printf.sprintf "%.4g" b)
                      (Printf.sprintf "%.4g" c)
                      (Printf.sprintf "%7.2fx%s" (c /. b) tag)
                | _ -> ())
              rows)
      bpts;
    List.iter
      (fun (key, _) ->
        if not (List.mem_assoc key bpts) then line key "-" "-" "-" "     new")
      cpts
  end;
  !regressed

let () =
  let advisory = ref false in
  let files = ref [] in
  List.iter
    (function
      | "--advisory" -> advisory := true
      | "--help" | "-h" ->
          print_endline usage;
          exit 0
      | a when String.length a > 1 && a.[0] = '-' ->
          fail "bench_compare: unknown option %s\nusage: %s" a usage
      | a -> files := a :: !files)
    (List.tl (Array.to_list Sys.argv));
  let base_file, cur_file =
    match List.rev !files with
    | [ b; c ] -> (b, c)
    | _ -> fail "usage: %s" usage
  in
  let base = load base_file and cur = load cur_file in
  let regressed =
    List.fold_left
      (fun acc tier ->
        let r = compare_tier tier base cur in
        if r > 0 then
          Printf.printf "%d %s metric(s) past their threshold vs %s\n" r
            (tier_name tier) base_file;
        acc + r)
      0
      [ Micro; Scale; Serve; Cache; Coop ]
  in
  if regressed = 0 then
    Printf.printf "\nno gated metric regressed vs %s\n" base_file
  else if !advisory then
    print_endline "bench_compare: advisory mode, not failing the check"
  else exit 1
