(* CLI for the typed lint tier: [lint_typed [--allowlist FILE] CMT-ROOT...].

   Walks the given directories (normally the built [lib] tree inside
   [_build/default], which is where the [@lint-typed] dune rule runs)
   for [.cmt] files and runs the three typed passes:

   - [typed-alloc] (alloc_check.ml) on the designated hot-path modules;
   - [typed-poly-eq] (typed_poly.ml) on every module;
   - [typed-race] (race_check.ml) on everything reachable from a
     [Domain.spawn] site, via the defs/uses call graph.

   Violations print as "file:line: rule-id message".  Exit status: 0
   clean, 1 violations or stale allowlist entries, 2 configuration
   errors (bad allowlist, no cmt input — the latter usually means the
   tree was not built). *)

let usage = "lint_typed [--allowlist FILE] CMT-ROOT..."

(* The per-message inner loops plus the insertion pipeline (DESIGN.md
   "hot paths").  The serve tier's drain/dispatch
   path (mailbox FIFOs + actor loop) is hot too: it executes once per
   delivered message, millions of times per campaign.  The ID and
   routing-table primitives are on the list because every hot path
   above calls them per candidate or per hop: a closure in
   [Node_id.equal] allocates wherever it is called.  The network's link
   primitives ([network.ml]: [offer_link_all_levels], [link_at_level])
   run per candidate per level of every join, and it holds the name
   column every table reads IDs from.  The pointer store
   is probed at every locate hop and written at every publish hop, and
   pointer maintenance re-walks records at every node a join's
   multicast reaches.  Publication ([publish.ml]) writes a pointer at
   every hop of every path, and the serve driver's placement runs it
   for every object.  The repair and optimization sweeps ([delete.ml],
   [optimizer.ml]) visit every node of the mesh, so their per-node
   allocations are annotated with what they buy.  The distance kernel
   ([metric.ml]) and the cost cells ([cost.ml]) sit under every hop
   charge, nearest-neighbour candidate and link offer: they are inlined
   into those callers, so an allocation there is paid at every use. *)
let hot_path_sources =
  [
    "lib/tapestry/node_id.ml";
    "lib/tapestry/routing_table.ml";
    "lib/tapestry/network.ml";
    "lib/tapestry/pointer_store.ml";
    "lib/tapestry/maintenance.ml";
    "lib/tapestry/delete.ml";
    "lib/tapestry/optimizer.ml";
    "lib/tapestry/route.ml";
    "lib/tapestry/locate.ml";
    "lib/tapestry/nearest_neighbor.ml";
    "lib/tapestry/multicast.ml";
    "lib/tapestry/insert.ml";
    "lib/tapestry/scratch.ml";
    "lib/serve/mailbox.ml";
    "lib/serve/actor.ml";
    "lib/tapestry/obj_cache.ml";
    "lib/tapestry/publish.ml";
    "lib/simnet/metric.ml";
    "lib/simnet/cost.ml";
  ]

let is_hot source =
  List.exists (fun s -> Filename.check_suffix source s) hot_path_sources

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let () =
  let allowlist = ref [] in
  let roots = ref [] in
  let args =
    [
      ( "--allowlist",
        Arg.String
          (fun f ->
            match Lint_core.parse_allowlist_checked (read_file f) with
            | Ok entries -> allowlist := !allowlist @ entries
            | Error errors ->
                List.iter (fun e -> Printf.eprintf "%s: %s\n" f e) errors;
                exit 2),
        "FILE intentional-exception list (rule-id path-suffix per line)" );
    ]
  in
  Arg.parse args (fun p -> roots := p :: !roots) usage;
  if !roots = [] then begin
    prerr_endline usage;
    exit 2
  end;
  let units = Cmt_load.find_units (List.rev !roots) in
  if units = [] then begin
    Printf.eprintf
      "lint_typed: no .cmt files under %s — run a dune build first\n"
      (String.concat " " (List.rev !roots));
    exit 2
  end;
  let alloc =
    List.concat_map
      (fun (u : Cmt_load.unit_info) ->
        if is_hot u.source then Alloc_check.check ~file:u.source u.structure
        else [])
      units
  in
  let poly =
    List.concat_map
      (fun (u : Cmt_load.unit_info) ->
        Typed_poly.check ~file:u.source u.structure)
      units
  in
  let race = Race_check.check (Callgraph.build units) in
  let violations = alloc @ poly @ race in
  let used = ref [] in
  let reported =
    violations
    |> List.filter (fun v ->
           match Lint_core.allowed_entry !allowlist v with
           | Some entry ->
               if not (List.mem entry !used) then used := entry :: !used;
               false
           | None -> true)
    |> List.sort Lint_core.compare_violations
  in
  List.iter (fun v -> print_endline (Lint_core.to_string v)) reported;
  let stale = Lint_core.unused_entries !allowlist ~used:!used in
  List.iter
    (fun (rule, path) ->
      Printf.printf
        "allowlist: stale entry '%s %s' matched nothing — remove it\n" rule
        path)
    stale;
  match (reported, stale) with
  | [], [] ->
      Printf.printf "lint_typed: %d modules clean (%d hot-path)\n"
        (List.length units)
        (List.length (List.filter (fun u -> is_hot u.Cmt_load.source) units));
      exit 0
  | vs, stale ->
      Printf.printf "lint_typed: %d violation%s, %d stale allowlist entr%s in \
                     %d modules\n"
        (List.length vs)
        (if List.length vs = 1 then "" else "s")
        (List.length stale)
        (if List.length stale = 1 then "y" else "ies")
        (List.length units);
      exit 1
