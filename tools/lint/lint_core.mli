(** Rule engine for the repo lint pass (see DESIGN.md "Correctness
    tooling").  Parses OCaml sources with compiler-libs and flags
    constructs that can silently break the mesh invariants:

    - [poly-compare]: unqualified or [Stdlib]-qualified polymorphic
      [compare];
    - [poly-eq-fn]: [List.mem]/[List.assoc] family, [Hashtbl.hash], and
      bare [(=)]/[(<>)] used as function values;
    - [eq-empty-list]: [e = []] / [e <> []] structural comparisons;
    - [ambient-rng] / [ambient-time]: [Stdlib.Random], [Unix.gettimeofday],
      [Unix.time], [Sys.time] outside the sanctioned RNG module
      (deterministic replay, Section 4.4 / Theorem 6);
    - [effect-handler]: any [Effect] path or [open Effect] (the
      simulator's one runtime is a [Simnet.Heap] timeline of timed
      closures);
    - [hot-path-alloc]: [List.sort]/[List.map] on designated hot-path
      files (routing, location and insertion inner loops), submodules
      included;
    - [missing-mli]: a library module without an interface;
    - [parse-error]: the file does not parse.

    The typed tier (cmt-based; [Alloc_check], [Race_check],
    [Typed_poly]) reuses {!violation}, the allowlist format and the
    rule-id namespace ([typed-alloc], [typed-race], [typed-poly-eq]).

    The expression rules are syntactic approximations; intentional
    exceptions go in the allowlist file. *)

type violation = {
  file : string;
  line : int;
  col : int;
  rule : string;
  message : string;
}

val rule_ids : string list

val to_string : violation -> string
(** ["file:line: rule-id message"], the format the CLI prints. *)

type allowlist = (string * string) list
(** (rule-id, path-suffix) pairs, in file order. *)

val parse_allowlist : string -> allowlist
(** One entry per line: ["<rule-id> <path-suffix>"]; ['#'] comments. *)

val parse_allowlist_checked : string -> (allowlist, string list) result
(** Like {!parse_allowlist}, but rejects duplicate entries and
    conflicting ones (an entry shadowed by a broader suffix under the
    same rule).  The error strings are human-readable diagnostics. *)

val allowed : allowlist -> violation -> bool

val allowed_entry : allowlist -> violation -> (string * string) option
(** The entry that excuses [v], if any — callers use it to track which
    entries were actually exercised in a run. *)

val unused_entries : allowlist -> used:(string * string) list -> allowlist
(** Entries that excused nothing: stale, and reported as failures so
    they cannot rot silently. *)

val lint_string :
  file:string ->
  ?determinism_exempt:bool ->
  ?hot_path:bool ->
  string ->
  violation list
(** Parse [content] as an implementation and run the expression rules.
    [determinism_exempt] disables [ambient-rng]/[ambient-time] (used for
    the sanctioned RNG module); [hot_path] enables [hot-path-alloc]
    (used for the routing/location/insertion inner-loop files). *)

val missing_mlis : mls:string list -> mlis:string list -> violation list
(** [missing-mli] violations for every path in [mls] without a matching
    [.mli] in [mlis]. *)

val compare_violations : violation -> violation -> int
(** Order by file, line, column, rule (for stable output). *)
