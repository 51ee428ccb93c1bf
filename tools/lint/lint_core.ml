(* Rule engine for the repo lint pass.  Parses OCaml sources with
   compiler-libs and walks the parsetree looking for constructs the repo
   bans (see DESIGN.md "Correctness tooling"):

   - poly-compare: unqualified [compare] (or [Stdlib.compare]) is the
     polymorphic comparison; on abstract protocol values (Node_id.t,
     routing-table entries, pointer records) it ignores the module's own
     ordering and can observe representation details.  Use the owning
     module's [compare] (Node_id.compare, Float.compare, Int.compare, ...).
   - poly-eq-fn: [List.mem], [List.assoc] and friends, [Hashtbl.hash] and
     bare [(=)]/[(<>)] passed as function values all bake in polymorphic
     structural equality.  Use [List.exists]/[List.find_opt] with the
     protocol type's own [equal].
   - eq-empty-list: [e = []] / [e <> []] is a structural comparison that
     silently becomes polymorphic equality over the element type if the
     expression ever changes; pattern match instead.
   - ambient-rng / ambient-time: [Stdlib.Random], [Unix.gettimeofday],
     [Unix.time] and [Sys.time] break deterministic replay (Section 4.4,
     Theorem 6 relies on a virtual-time event heap running identical event
     orders for identical seeds).  All randomness must flow through
     Simnet.Rng and all time through the simulated clock.
   - effect-handler: any [Effect] path ([Effect.perform], [open Effect],
     [Effect.Deep.match_with], [type _ Effect.t += ...]).  The
     simulator has one runtime: timed closures on a [Simnet.Heap]
     timeline (and the serve engine's event heap); coroutines over
     effect handlers are a second scheduler to keep in step with it.
   - missing-mli: every lib/ module must have an interface so that its
     abstract types stay abstract (otherwise polymorphic equality on them
     typechecks everywhere).
   - hot-path-alloc: on designated hot-path files (the routing, location
     and insertion inner loops) [List.sort] and [List.map] allocate a
     fresh list per call and [List.sort] boxes a closure per comparison;
     the packed table/scratch primitives exist precisely to avoid that.
     The rule covers the whole file, submodules included: list-based
     reference implementations live in test/oracle, outside lib/.

   The checks are syntactic approximations: a file that defines its own
   top-level [compare]/[equal] may refer to them unqualified, so such
   references are not flagged. *)

type violation = {
  file : string;
  line : int;
  col : int;
  rule : string;
  message : string;
}

let rule_ids =
  [
    "poly-compare";
    "poly-eq-fn";
    "eq-empty-list";
    "ambient-rng";
    "ambient-time";
    "effect-handler";
    "hot-path-alloc";
    "missing-mli";
    "parse-error";
    (* typed tier (cmt-based; see alloc_check.ml, race_check.ml,
       typed_poly.ml) *)
    "typed-alloc";
    "typed-race";
    "typed-poly-eq";
  ]

let to_string v =
  Printf.sprintf "%s:%d: %s %s" v.file v.line v.rule v.message

(* --- allowlist --- *)

(* One entry per line: "<rule-id> <path-suffix>"; '#' starts a comment.
   A violation is allowed when its rule matches and its file path ends
   with the entry's suffix. *)

type allowlist = (string * string) list

let parse_allowlist content =
  String.split_on_char '\n' content
  |> List.filter_map (fun line ->
         let line =
           match String.index_opt line '#' with
           | Some i -> String.sub line 0 i
           | None -> line
         in
         let line = String.trim line in
         if String.length line = 0 then None
         else
           match String.index_opt line ' ' with
           | None -> None
           | Some i ->
               let rule = String.sub line 0 i in
               let path =
                 String.trim (String.sub line i (String.length line - i))
               in
               if String.length path = 0 then None else Some (rule, path))

let suffix_matches ~suffix path =
  let ls = String.length suffix and lp = String.length path in
  ls <= lp && String.sub path (lp - ls) ls = suffix

(* Duplicate and conflicting entries are configuration errors: an exact
   duplicate is dead weight, and an entry whose path ends with another
   entry's path (same rule) can never match anything the shorter one
   does not already cover — both rot silently unless rejected. *)
let allowlist_errors entries =
  let errors = ref [] in
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (rule, path) ->
      (if Hashtbl.mem seen (rule, path) then
         errors :=
           Printf.sprintf "duplicate allowlist entry: %s %s" rule path
           :: !errors
       else
         List.iter
           (fun ((r2, p2) as k2) ->
             if
               Hashtbl.mem seen k2 && String.equal rule r2
               && not (String.equal path p2)
             then
               if suffix_matches ~suffix:p2 path then
                 errors :=
                   Printf.sprintf
                     "conflicting allowlist entries: '%s %s' is shadowed by \
                      broader '%s %s'"
                     rule path r2 p2
                   :: !errors
               else if suffix_matches ~suffix:path p2 then
                 errors :=
                   Printf.sprintf
                     "conflicting allowlist entries: '%s %s' is shadowed by \
                      broader '%s %s'"
                     r2 p2 rule path
                   :: !errors)
           entries);
      Hashtbl.replace seen (rule, path) ())
    entries;
  List.rev !errors

let parse_allowlist_checked content =
  let entries = parse_allowlist content in
  match allowlist_errors entries with
  | [] -> Ok entries
  | errors -> Error errors

let allowed_entry allowlist v =
  List.find_opt
    (fun (rule, path) ->
      String.equal rule v.rule && suffix_matches ~suffix:path v.file)
    allowlist

let allowed allowlist v = Option.is_some (allowed_entry allowlist v)

(* Entries that matched no violation in a run are stale: the code they
   excused has been fixed or moved, and leaving them around silently
   re-excuses future regressions. *)
let unused_entries allowlist ~used =
  List.filter
    (fun (rule, path) ->
      not
        (List.exists
           (fun (r, p) -> String.equal r rule && String.equal p path)
           used))
    allowlist

(* --- expression rules --- *)

let flatten_lid lid =
  let rec go acc = function
    | Longident.Lident s -> s :: acc
    | Longident.Ldot (l, s) -> go (s :: acc) l
    | Longident.Lapply (l, _) -> go acc l
  in
  go [] lid

let normalize = function
  | ("Stdlib" | "Pervasives") :: rest -> rest
  | p -> p

let is_list_assoc_family = function
  | "mem" | "assoc" | "assoc_opt" | "mem_assoc" | "remove_assoc" -> true
  | _ -> false

let is_hashtbl_hash = function
  | "hash" | "seeded_hash" | "hash_param" | "seeded_hash_param" -> true
  | _ -> false

(* Names whose unqualified use is fine when the file defines them itself
   (a module referring to its own [compare]/[equal] is exactly what the
   rule asks for). *)
let self_definable = [ "compare"; "equal" ]

let collect_toplevel_defs structure =
  let defined = Hashtbl.create 8 in
  let open Ast_iterator in
  let value_binding iter (vb : Parsetree.value_binding) =
    (match vb.pvb_pat.ppat_desc with
    | Ppat_var { txt; _ } when List.mem txt self_definable ->
        Hashtbl.replace defined txt ()
    | _ -> ());
    default_iterator.value_binding iter vb
  in
  let iter = { default_iterator with value_binding } in
  iter.structure iter structure;
  defined

let effect_message =
  "effect handlers; schedule timed closures on a Simnet.Heap timeline \
   instead"

let lint_structure ~file ~determinism_exempt ~hot_path structure =
  let violations = ref [] in
  let defined = collect_toplevel_defs structure in
  let add ~loc rule message =
    let pos = loc.Location.loc_start in
    violations :=
      {
        file;
        line = pos.Lexing.pos_lnum;
        col = pos.Lexing.pos_cnum - pos.Lexing.pos_bol;
        rule;
        message;
      }
      :: !violations
  in
  let flag_effect_path ~loc lid =
    match normalize (flatten_lid lid) with
    | "Effect" :: _ -> add ~loc "effect-handler" effect_message
    | _ -> ()
  in
  let check_ident ~loc raw =
    let unqualified = match raw with [ _ ] -> true | _ -> false in
    match normalize raw with
    | [ "compare" ]
      when not (unqualified && Hashtbl.mem defined "compare") ->
        add ~loc "poly-compare"
          "polymorphic compare; use the value's own module compare \
           (Node_id.compare, Float.compare, Int.compare, ...)"
    | [ ("=" | "<>") ] ->
        add ~loc "poly-eq-fn"
          "polymorphic (=)/(<>) passed as a function; pass the protocol \
           type's own equal"
    | [ "List"; f ] when is_list_assoc_family f ->
        add ~loc "poly-eq-fn"
          (Printf.sprintf
             "List.%s uses polymorphic equality; use List.exists/List.find_opt \
              with an explicit equal"
             f)
    | [ "List"; (("sort" | "map") as f) ] when hot_path ->
        add ~loc "hot-path-alloc"
          (Printf.sprintf
             "List.%s allocates on a hot-path file; use the packed \
              table/scratch primitives"
             f)
    | [ "Hashtbl"; f ] when is_hashtbl_hash f ->
        add ~loc "poly-eq-fn"
          (Printf.sprintf
             "Hashtbl.%s is the polymorphic hash; use a keyed functor table \
              (e.g. Node_id.Tbl) with the type's own hash"
             f)
    | "Random" :: _ when not determinism_exempt ->
        add ~loc "ambient-rng"
          "ambient Stdlib.Random breaks deterministic replay; draw from \
           Simnet.Rng"
    | [ "Unix"; ("gettimeofday" | "time") ] | [ "Sys"; "time" ] ->
        if not determinism_exempt then
          add ~loc "ambient-time"
            "wall-clock time breaks deterministic replay; use the simulated \
             clock (Network.clock, or the time a timeline passes its event)"
    | "Effect" :: _ -> add ~loc "effect-handler" effect_message
    | _ -> ()
  in
  let is_nil (e : Parsetree.expression) =
    match e.pexp_desc with
    | Pexp_construct ({ txt = Longident.Lident "[]"; _ }, None) -> true
    | _ -> false
  in
  let open Ast_iterator in
  let expr iter (e : Parsetree.expression) =
    match e.pexp_desc with
    | Pexp_apply (({ pexp_desc = Pexp_ident { txt; loc = _ }; _ } as fn), args)
      -> (
        let raw = flatten_lid txt in
        (match normalize raw with
        | [ ("=" | "<>") ] ->
            if List.exists (fun (_, a) -> is_nil a) args then
              add ~loc:e.pexp_loc "eq-empty-list"
                "structural comparison with []; pattern match on the list \
                 instead"
            else if List.length args < 2 then
              (* partial application, e.g. [List.filter (( = ) x)] *)
              add ~loc:fn.Parsetree.pexp_loc "poly-eq-fn"
                "polymorphic (=)/(<>) passed as a function; pass the protocol \
                 type's own equal"
            (* a saturated (=) on non-list operands is left to the type
               checker; only the function-value and []-literal forms are
               syntactically detectable *)
        | _ -> check_ident ~loc:fn.Parsetree.pexp_loc raw);
        List.iter (fun (_, a) -> iter.expr iter a) args)
    | Pexp_ident { txt; _ } ->
        check_ident ~loc:e.pexp_loc (flatten_lid txt)
    | _ -> default_iterator.expr iter e
  in
  (* [open Effect], [let open Effect.Deep in], [module E = Effect] *)
  let module_expr iter (m : Parsetree.module_expr) =
    (match m.pmod_desc with
    | Pmod_ident { txt; loc } -> flag_effect_path ~loc txt
    | _ -> ());
    default_iterator.module_expr iter m
  in
  (* [_ Effect.t] in a signature and [type _ Effect.t += ...] *)
  let typ iter (t : Parsetree.core_type) =
    (match t.ptyp_desc with
    | Ptyp_constr ({ txt; loc }, _) -> flag_effect_path ~loc txt
    | _ -> ());
    default_iterator.typ iter t
  in
  let type_extension iter (te : Parsetree.type_extension) =
    flag_effect_path ~loc:te.ptyext_path.loc te.ptyext_path.txt;
    default_iterator.type_extension iter te
  in
  let iter = { default_iterator with expr; module_expr; typ; type_extension } in
  iter.structure iter structure;
  List.rev !violations

let lint_string ~file ?(determinism_exempt = false) ?(hot_path = false) content =
  let lexbuf = Lexing.from_string content in
  Lexing.set_filename lexbuf file;
  match Parse.implementation lexbuf with
  | structure -> lint_structure ~file ~determinism_exempt ~hot_path structure
  | exception exn ->
      let line =
        match exn with
        | Syntaxerr.Error e ->
            (Syntaxerr.location_of_error e).Location.loc_start.Lexing.pos_lnum
        | _ -> 1
      in
      [
        {
          file;
          line;
          col = 0;
          rule = "parse-error";
          message = Printexc.to_string exn;
        };
      ]

(* --- interface coverage --- *)

let missing_mlis ~mls ~mlis =
  let mli_set = Hashtbl.create 64 in
  List.iter (fun p -> Hashtbl.replace mli_set p ()) mlis;
  List.filter_map
    (fun ml ->
      let wanted = Filename.remove_extension ml ^ ".mli" in
      if Hashtbl.mem mli_set wanted then None
      else
        Some
          {
            file = ml;
            line = 1;
            col = 0;
            rule = "missing-mli";
            message =
              "library module without an interface; add a .mli so abstract \
               protocol types stay abstract";
          })
    mls

let compare_violations a b =
  match String.compare a.file b.file with
  | 0 -> (
      match Int.compare a.line b.line with
      | 0 -> (
          match Int.compare a.col b.col with
          | 0 -> String.compare a.rule b.rule
          | c -> c)
      | c -> c)
  | c -> c
