(* CLI for the repo lint pass: [lint [--allowlist FILE] PATH...].

   Every .ml under the given paths is parsed and checked against the
   Lint_core rules; every lib/ .ml must additionally have a matching .mli.
   Violations print as "file:line: rule-id message" and the exit status is
   1 if any non-allowlisted violation was found.  Wired up as the
   [@lint] dune alias (see the root dune file and tools/check.sh). *)

let usage = "lint [--allowlist FILE] PATH..."

(* The one module allowed to touch ambient randomness: everything else
   must draw from it so that equal seeds replay equal runs. *)
let determinism_exempt file = Filename.check_suffix file "lib/simnet/rng.ml"

(* The per-message inner loops (DESIGN.md "hot paths"): routing, object
   location, and the insertion pipeline.  These carry the hot-path-alloc
   rule over the whole file. *)
let hot_path file =
  List.exists
    (fun m -> Filename.check_suffix file ("lib/tapestry/" ^ m ^ ".ml"))
    [ "route"; "locate"; "nearest_neighbor"; "multicast" ]

let rec walk path acc =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list |> List.sort String.compare
    |> List.fold_left
         (fun acc name ->
           match name with
           | "_build" | ".git" | "fixtures" -> acc
           | _ -> walk (Filename.concat path name) acc)
         acc
  else if Filename.check_suffix path ".ml" || Filename.check_suffix path ".mli"
  then path :: acc
  else acc

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let () =
  let allowlist = ref [] in
  let paths = ref [] in
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
  Arg.parse args (fun p -> paths := p :: !paths) usage;
  if !paths = [] then begin
    prerr_endline usage;
    exit 2
  end;
  let files = List.fold_left (fun acc p -> walk p acc) [] (List.rev !paths) in
  let mls = List.filter (fun f -> Filename.check_suffix f ".ml") files in
  let mlis = List.filter (fun f -> Filename.check_suffix f ".mli") files in
  let violations =
    List.concat_map
      (fun file ->
        Lint_core.lint_string ~file
          ~determinism_exempt:(determinism_exempt file)
          ~hot_path:(hot_path file)
          (read_file file))
      mls
  in
  let under_lib f =
    List.exists (String.equal "lib")
      (String.split_on_char '/' (Filename.dirname f))
  in
  let lib_mls = List.filter under_lib mls in
  let violations = violations @ Lint_core.missing_mlis ~mls:lib_mls ~mlis in
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
  (* Stale allowlist entries rot silently otherwise: the excused code
     was fixed or moved, and the entry would excuse a future regression. *)
  let stale = Lint_core.unused_entries !allowlist ~used:!used in
  List.iter
    (fun (rule, path) ->
      Printf.printf
        "allowlist: stale entry '%s %s' matched nothing — remove it\n" rule path)
    stale;
  match (reported, stale) with
  | [], [] ->
      Printf.printf "lint: %d files clean\n" (List.length mls);
      exit 0
  | vs, stale ->
      Printf.printf "lint: %d violation%s, %d stale allowlist entr%s in %d files\n"
        (List.length vs)
        (if List.length vs = 1 then "" else "s")
        (List.length stale)
        (if List.length stale = 1 then "y" else "ies")
        (List.length mls);
      exit 1
