(* Unit tests for the lint rule engine (tools/lint/lint_core.ml): each rule
   fires on a minimal trigger, the self-defined-compare suppression works,
   the determinism exemption works, and the allowlist matches by rule and
   path suffix.  The seeded fixture is also linted from here, so the rule
   set and the fixture cannot drift apart silently. *)

let rules_of ?determinism_exempt src =
  Lint_core.lint_string ~file:"lib/tapestry/sample.ml" ?determinism_exempt src
  |> List.map (fun v -> v.Lint_core.rule)

let check_rules name expected src =
  Alcotest.(check (list string)) name expected (rules_of src)

let test_poly_compare () =
  check_rules "bare compare" [ "poly-compare" ] "let f xs = List.sort compare xs";
  check_rules "Stdlib.compare" [ "poly-compare" ]
    "let f xs = List.sort Stdlib.compare xs";
  check_rules "qualified is fine" [] "let f xs = List.sort Int.compare xs"

let test_local_compare_suppression () =
  check_rules "self-defined compare is suppressed" []
    "let compare a b = Int.compare a b\nlet f xs = List.sort compare xs";
  (* ... but a Stdlib-qualified use is still polymorphic and still flagged *)
  check_rules "Stdlib.compare not suppressed by a local compare"
    [ "poly-compare" ]
    "let compare a b = Int.compare a b\nlet f xs = List.sort Stdlib.compare xs"

let test_poly_eq_functions () =
  check_rules "List.mem" [ "poly-eq-fn" ] "let f x xs = List.mem x xs";
  check_rules "List.assoc" [ "poly-eq-fn" ] "let f k xs = List.assoc k xs";
  check_rules "List.mem_assoc" [ "poly-eq-fn" ] "let f k xs = List.mem_assoc k xs";
  check_rules "Hashtbl.hash" [ "poly-eq-fn" ] "let f x = Hashtbl.hash x";
  check_rules "bare = as function value" [ "poly-eq-fn" ]
    "let f xs = List.exists (( = ) 1) xs";
  (* a saturated [=] on non-list operands is the type checker's business *)
  check_rules "saturated int equality not flagged" [] "let f a b = a = b"

let test_eq_empty_list () =
  check_rules "xs = []" [ "eq-empty-list" ] "let f xs = xs = []";
  check_rules "xs <> []" [ "eq-empty-list" ] "let f xs = xs <> []";
  check_rules "[] on the left" [ "eq-empty-list" ] "let f xs = [] = xs";
  check_rules "match is the fix, not a violation" []
    "let f xs = match xs with [] -> true | _ :: _ -> false"

let test_ambient_sources () =
  check_rules "Random.int" [ "ambient-rng" ] "let f () = Random.int 10";
  check_rules "Stdlib.Random" [ "ambient-rng" ] "let f () = Stdlib.Random.bool ()";
  check_rules "Sys.time" [ "ambient-time" ] "let f () = Sys.time ()";
  check_rules "Unix.gettimeofday" [ "ambient-time" ]
    "let f () = Unix.gettimeofday ()";
  Alcotest.(check (list string)) "exempt module may use ambient sources" []
    (rules_of ~determinism_exempt:true "let f () = Random.int 10 + int_of_float (Sys.time ())")

let test_effect_handler () =
  check_rules "Effect.perform" [ "effect-handler" ] "let f e = Effect.perform e";
  check_rules "open Effect" [ "effect-handler"; "effect-handler" ]
    "open Effect\nopen Effect.Deep";
  check_rules "let open" [ "effect-handler" ] "let f () = let open Effect in ()";
  check_rules "effect declaration: extended type and result type"
    [ "effect-handler"; "effect-handler" ]
    "type _ Effect.t += Sleep : float -> unit Effect.t";
  check_rules "Stdlib.Effect" [ "effect-handler" ]
    "let f k = Stdlib.Effect.Deep.continue k ()";
  check_rules "other modules named alike are fine" [] "let f = Effects.run"

let test_hot_path_alloc () =
  let rules_hot src =
    Lint_core.lint_string ~file:"lib/tapestry/route.ml" ~hot_path:true src
    |> List.map (fun v -> v.Lint_core.rule)
  in
  Alcotest.(check (list string)) "List.sort on a hot-path file"
    [ "hot-path-alloc" ]
    (rules_hot "let f xs = List.sort Int.compare xs");
  Alcotest.(check (list string)) "List.map on a hot-path file"
    [ "hot-path-alloc" ]
    (rules_hot "let f xs = List.map succ xs");
  Alcotest.(check (list string)) "List.iter stays fine" []
    (rules_hot "let f xs = List.iter ignore xs");
  check_rules "off-hot-path file unaffected" []
    "let f xs = List.sort Int.compare xs |> List.map succ";
  (* no submodule is exempt: reference implementations live in
     test/oracle, outside lib/ *)
  Alcotest.(check (list string)) "a module Oracle is linted like any code"
    [ "hot-path-alloc" ]
    (rules_hot
       "module Oracle = struct\n  let f xs = List.sort Int.compare xs\nend")

let test_parse_error () =
  check_rules "unparsable file" [ "parse-error" ] "let f = ("

let test_allowlist () =
  let al =
    Lint_core.parse_allowlist
      "# comment line\n\nambient-time bin/tapestry_sim.ml\npoly-compare lib/foo.ml\n"
  in
  let v ~file ~rule =
    { Lint_core.file; line = 1; col = 0; rule; message = "m" }
  in
  Alcotest.(check bool) "match by rule and path suffix" true
    (Lint_core.allowed al (v ~file:"/root/repo/bin/tapestry_sim.ml" ~rule:"ambient-time"));
  Alcotest.(check bool) "same file, different rule" false
    (Lint_core.allowed al (v ~file:"/root/repo/bin/tapestry_sim.ml" ~rule:"ambient-rng"));
  Alcotest.(check bool) "same rule, different file" false
    (Lint_core.allowed al (v ~file:"lib/bar.ml" ~rule:"poly-compare"))

let test_missing_mlis () =
  let vs =
    Lint_core.missing_mlis
      ~mls:[ "lib/a.ml"; "lib/b.ml" ]
      ~mlis:[ "lib/a.mli" ]
  in
  Alcotest.(check (list string)) "only the uncovered module"
    [ "missing-mli" ]
    (List.map (fun v -> v.Lint_core.rule) vs);
  Alcotest.(check (list string)) "names the .ml" [ "lib/b.ml" ]
    (List.map (fun v -> v.Lint_core.file) vs)

let test_violation_format () =
  match Lint_core.lint_string ~file:"lib/x.ml" "let f xs = xs = []" with
  | [ v ] ->
      let s = Lint_core.to_string v in
      let prefix = "lib/x.ml:1: eq-empty-list" in
      Alcotest.(check string) "file:line: rule-id prefix" prefix
        (String.sub s 0 (String.length prefix))
  | _ -> Alcotest.fail "expected one violation"

let test_seeded_fixture () =
  (* the dune @runtest rule asserts the CLI exits 1 on this fixture; here we
     assert the engine sees every rule the fixture seeds *)
  let ic = open_in "../tools/lint/fixtures/seeded.ml" in
  let len = in_channel_length ic in
  let src = really_input_string ic len in
  close_in ic;
  let vs = Lint_core.lint_string ~file:"tools/lint/fixtures/seeded.ml" src in
  let fired = List.sort_uniq String.compare (List.map (fun v -> v.Lint_core.rule) vs) in
  Alcotest.(check (list string)) "fixture covers every expression rule"
    [ "ambient-rng"; "ambient-time"; "effect-handler"; "eq-empty-list";
      "poly-compare"; "poly-eq-fn" ]
    fired;
  Alcotest.(check bool) "fixture seeds many violations" true (List.length vs >= 10)

(* --- typed tier: fixtures are typechecked in-process (no on-disk
   build), so the rules run on the same Typedtree the cmt path sees --- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let fixture name =
  Cmt_load.typecheck_string
    ~file:("test/fixtures/lint/" ^ name)
    (read_file ("fixtures/lint/" ^ name))

let messages vs = List.map (fun v -> v.Lint_core.message) vs

let assert_mentions name vs needles =
  let msgs = messages vs in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "%s mentions %S" name needle)
        true
        (List.exists
           (fun m ->
             (* substring search *)
             let lm = String.length m and ln = String.length needle in
             let rec at i = i + ln <= lm && (String.sub m i ln = needle || at (i + 1)) in
             at 0)
           msgs))
    needles

let test_typed_alloc_fixture () =
  let u = fixture "alloc_violation.ml" in
  let vs = Alloc_check.check ~file:u.Cmt_load.source u.Cmt_load.structure in
  Alcotest.(check (list string))
    "every finding is typed-alloc"
    (List.map (fun _ -> "typed-alloc") vs)
    (List.map (fun v -> v.Lint_core.rule) vs);
  assert_mentions "alloc fixture" vs
    [
      "closure allocated per call";
      "tuple allocation";
      "record allocation";
      "ref cell allocation";
      "partial application";
      "float boxed at a polymorphic argument position";
      "list cons allocation";
      "polymorphic variant with payload";
      "lazy block allocation";
    ]

let test_typed_alloc_clean () =
  let u = fixture "alloc_clean.ml" in
  Alcotest.(check (list string))
    "clean fixture has no findings" []
    (messages (Alloc_check.check ~file:u.Cmt_load.source u.Cmt_load.structure))

let test_typed_poly_fixture () =
  let u = fixture "poly_violation.ml" in
  let vs = Typed_poly.check ~file:u.Cmt_load.source u.Cmt_load.structure in
  Alcotest.(check int) "three seeded comparisons" 3 (List.length vs);
  assert_mentions "poly fixture" vs [ "( = )"; "( <> )"; "compare"; "Guid.t" ]

let test_typed_poly_clean () =
  let u = fixture "poly_clean.ml" in
  Alcotest.(check (list string))
    "safe types, == and [@poly_ok] all pass" []
    (messages (Typed_poly.check ~file:u.Cmt_load.source u.Cmt_load.structure))

let race_of unit_ =
  Race_check.check (Callgraph.build [ unit_ ])

let test_typed_race_fixture () =
  let u = fixture "race_violation.ml" in
  let graph = Callgraph.build [ u ] in
  Alcotest.(check bool) "spawn makes bindings reachable" true
    (match Callgraph.spawn_reachable graph with [] -> false | _ :: _ -> true);
  let vs = Race_check.check graph in
  assert_mentions "race fixture" vs
    [
      "unsynchronized ref write";
      "unsynchronized ref read";
      "unsynchronized write to mutable field count";
      "unsynchronized read of mutable field count";
      "array store not proven chunk-local";
    ]

let test_typed_race_clean () =
  let u = fixture "race_clean.ml" in
  Alcotest.(check (list string))
    "chunked map, Atomic and [@race_ok] all pass" []
    (messages (race_of u))

(* The live regression the ISSUE pins down: [Simnet.Parallel.map]'s
   chunked result writes must stay accepted *as written*, from the real
   cmt the build produced (not a re-typed copy). *)
let test_race_accepts_parallel_map () =
  let cmt = "../lib/simnet/.simnet.objs/byte/simnet__Parallel.cmt" in
  match Cmt_load.load cmt with
  | None -> Alcotest.fail ("could not load " ^ cmt)
  | Some u ->
      Alcotest.(check string) "short module name" "Parallel" u.Cmt_load.modname;
      let graph = Callgraph.build [ u ] in
      Alcotest.(check bool) "Parallel.map's spawn site is seen" true
        (match Callgraph.spawn_reachable graph with
        | [] -> false
        | _ :: _ -> true);
      Alcotest.(check (list string))
        "chunked map accepted as written" []
        (messages (Race_check.check graph))

(* --- allowlist hardening: duplicates and shadowed entries rejected,
   stale entries reported --- *)

let test_allowlist_checked () =
  (match Lint_core.parse_allowlist_checked "typed-alloc lib/a.ml\n" with
  | Ok [ ("typed-alloc", "lib/a.ml") ] -> ()
  | _ -> Alcotest.fail "single entry should parse");
  (match
     Lint_core.parse_allowlist_checked
       "typed-alloc lib/a.ml\n# note\ntyped-alloc lib/a.ml\n"
   with
  | Error [ e ] ->
      Alcotest.(check bool) "duplicate named" true
        (String.length e > 0 && Option.is_some (String.index_opt e 'd'))
  | _ -> Alcotest.fail "exact duplicate must be rejected");
  (match
     Lint_core.parse_allowlist_checked
       "typed-race lib/simnet/parallel.ml\ntyped-race parallel.ml\n"
   with
  | Error (_ :: _) -> ()
  | _ -> Alcotest.fail "shadowed entry must be rejected");
  (* same path under different rules is fine *)
  (match
     Lint_core.parse_allowlist_checked
       "typed-alloc lib/a.ml\ntyped-race lib/a.ml\n"
   with
  | Ok [ _; _ ] -> ()
  | _ -> Alcotest.fail "same path under two rules is not a conflict");
  let al = [ ("typed-alloc", "lib/a.ml"); ("typed-race", "lib/b.ml") ] in
  Alcotest.(check (list (pair string string)))
    "unused entries are reported stale"
    [ ("typed-race", "lib/b.ml") ]
    (Lint_core.unused_entries al ~used:[ ("typed-alloc", "lib/a.ml") ])

let () =
  Alcotest.run "lint"
    [
      ( "rules",
        [
          Alcotest.test_case "poly-compare" `Quick test_poly_compare;
          Alcotest.test_case "local compare suppression" `Quick
            test_local_compare_suppression;
          Alcotest.test_case "poly-eq functions" `Quick test_poly_eq_functions;
          Alcotest.test_case "eq-empty-list" `Quick test_eq_empty_list;
          Alcotest.test_case "ambient rng/time" `Quick test_ambient_sources;
          Alcotest.test_case "effect handlers" `Quick test_effect_handler;
          Alcotest.test_case "hot-path alloc" `Quick test_hot_path_alloc;
          Alcotest.test_case "parse error" `Quick test_parse_error;
        ] );
      ( "infrastructure",
        [
          Alcotest.test_case "allowlist" `Quick test_allowlist;
          Alcotest.test_case "allowlist hardening" `Quick test_allowlist_checked;
          Alcotest.test_case "missing mlis" `Quick test_missing_mlis;
          Alcotest.test_case "violation format" `Quick test_violation_format;
          Alcotest.test_case "seeded fixture" `Quick test_seeded_fixture;
        ] );
      ( "typed",
        [
          Alcotest.test_case "alloc fixture fires" `Quick
            test_typed_alloc_fixture;
          Alcotest.test_case "alloc escapes pass" `Quick test_typed_alloc_clean;
          Alcotest.test_case "poly-eq fixture fires" `Quick
            test_typed_poly_fixture;
          Alcotest.test_case "poly-eq escapes pass" `Quick
            test_typed_poly_clean;
          Alcotest.test_case "race fixture fires" `Quick
            test_typed_race_fixture;
          Alcotest.test_case "race escapes pass" `Quick test_typed_race_clean;
          Alcotest.test_case "race accepts Parallel.map" `Quick
            test_race_accepts_parallel_map;
        ] );
    ]
