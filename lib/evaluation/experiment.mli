(** The experiment harness: one entry per reproduced table/figure.

    Each function builds its own networks, runs the workload and returns
    rendered {!Simnet.Stats.Table.t}s whose rows mirror what the paper
    reports (see DESIGN.md section 4 for the experiment index and
    EXPERIMENTS.md for paper-vs-measured).  [quick] shrinks sizes for test
    and smoke use; experiments are deterministic given [seed].

    Experiments whose iterations are independent (one per size or
    configuration) take [?domains] and spread iterations over that many
    stdlib domains via {!Simnet.Parallel}; results are joined in iteration
    order, so output is bit-identical whatever [domains] is (default 1). *)

type mode = Quick | Full

val table1 : ?seed:int -> ?domains:int -> mode -> Simnet.Stats.Table.t list
(** E1 — Table 1 empirically: per scheme and size, insert cost (messages),
    space per node (table entries), lookup hops, and pointer-load balance. *)

val stretch : ?seed:int -> mode -> Simnet.Stats.Table.t list
(** E2 — stretch vs distance-to-object for Tapestry (both routing variants),
    Chord, central directory and broadcast on a growth-restricted metric. *)

val nn_k : ?seed:int -> mode -> Simnet.Stats.Table.t list
(** E3 — Lemma 1/Theorem 3: nearest-neighbor success and Property-1 backfill
    pressure as the list width k sweeps. *)

val insert_scaling : ?seed:int -> ?domains:int -> mode -> Simnet.Stats.Table.t list
(** E4 — insertion cost scaling: messages vs n with the log^2 n normalizer,
    latency vs network diameter. *)

val multicast : ?seed:int -> mode -> Simnet.Stats.Table.t list
(** E5 — Theorem 5: coverage and spanning-tree economy of acknowledged
    multicast. *)

val surrogate : ?seed:int -> mode -> Simnet.Stats.Table.t list
(** E6 — Theorem 2: root uniqueness for both localized routing variants and
    the <2 expected surrogate-hop overhead. *)

val availability : ?seed:int -> mode -> Simnet.Stats.Table.t list
(** E7 — object availability under churn (joins, voluntary leaves, silent
    failures) with lazy repair and periodic republish. *)

val concurrent_insert : ?seed:int -> mode -> Simnet.Stats.Table.t list
(** E8 — Theorem 6: batches of simultaneous insertions, run as timed
    closures on a {!Simnet.Heap} timeline that interleave at insertion
    stage boundaries, keep Property 1. *)

val prr_v0 : ?seed:int -> ?domains:int -> mode -> Simnet.Stats.Table.t list
(** E9 — Theorem 7: PRR v.0 stretch and space on general (expansion-free)
    metrics, next to Tapestry on the same spaces. *)

val stub_locality : ?seed:int -> mode -> Simnet.Stats.Table.t list
(** E10 — Section 6.3: intra-stub query latency with and without the
    local-branch optimization on transit-stub topologies. *)

val table_quality : ?seed:int -> ?domains:int -> mode -> Simnet.Stats.Table.t list
(** E11 — incremental construction vs the static oracle: Property-2 slot
    optimality and primary-distance quality. *)

val delete : ?seed:int -> mode -> Simnet.Stats.Table.t list
(** E12 — deletion: consistency and availability through voluntary sweeps
    and involuntary failures, plus Figure 9 pointer-path optimality. *)

val nn_vs_kr : ?seed:int -> mode -> Simnet.Stats.Table.t list
(** E13 — Section 3's comparison: the level-list descent vs a Karger-Ruhl
    style sampling search — exactness, messages, network distance, space. *)

val continual_optimization : ?seed:int -> mode -> Simnet.Stats.Table.t list
(** E14 — Section 6.4: stretch/locality decay under drifting distances and
    recovery by each optimization heuristic, with maintenance cost. *)

val redundancy : ?seed:int -> ?domains:int -> mode -> Simnet.Stats.Table.t list
(** E15 — ablation of R (secondaries per slot) and root-set size
    (Observation 1): availability through silent mass failure. *)

val async_recovery : ?seed:int -> mode -> Simnet.Stats.Table.t list
(** E16 — recovery timeline: mass silent failure under running heartbeat
    and republish daemons (Sections 5.2/6.5), run as timed closures on a
    {!Simnet.Heap} timeline that interleave at whole-operation boundaries;
    availability per virtual-time bucket shows the dip and the soft-state
    recovery. *)

val all : ?seed:int -> ?domains:int -> mode -> (string * Simnet.Stats.Table.t list) list
(** Every experiment in paper order, tagged with its id.  Runs everything —
    use {!by_name} to run one. *)

val by_name : ?seed:int -> ?domains:int -> mode -> string -> Simnet.Stats.Table.t list
(** Run one experiment; [domains] is ignored by experiments that don't
    parallelize. @raise Invalid_argument on an unknown name. *)

val run_and_print : ?seed:int -> ?domains:int -> mode -> string list -> unit
(** Print the named experiments (or all of them for [[]]) to stdout. *)

val names : string list

(** {2 Scale tier}

    Re-measures the paper's headline claims — E1 insertion cost (fit
    against c·log² n), E2 locate hop counts, E4 stretch — at
    10^5–10^6 nodes via {!Tapestry.Static_build.build_streamed}, with
    resident-size accounting.  Kept out of {!all}/{!names}: a point takes
    minutes to hours, and the output schema (wall-clock, RSS) is
    machine-dependent, unlike the deterministic experiment tables. *)

type scale_point = {
  sp_n : int;
  sp_build_wall_s : float;  (** construction wall-clock (via [now]) *)
  sp_wall_s : float;  (** whole point incl. sampling (via [now]) *)
  sp_stats : Tapestry.Static_build.stream_stats;
  sp_insert_fit_c : float;
      (** late-join mean messages / log2(n)² — the E1 constant; flat
          across sizes confirms the Θ(log² n) insertion bound *)
  sp_locate_hops : float;  (** E2: mean locate hops over the sample *)
  sp_locate_success : float;  (** fraction of sampled locates that hit *)
  sp_stretch_mean : float;  (** E4: mean latency / optimal over sample *)
  sp_stretch_p95 : float;
  sp_bytes_per_node : float;
      (** {!Tapestry.Network.memory_footprint} total / n *)
  sp_peak_rss_kb : int;  (** VmHWM of the process, kB; 0 if unreadable *)
  sp_gc_top_heap_words : int;
  sp_minor_words : float;
  sp_audit_violations : int option;  (** [Some 0] = audit-clean *)
}

val scale_point :
  ?seed:int ->
  ?domains:int ->
  ?now:(unit -> float) ->
  ?objects:int ->
  ?queries:int ->
  ?audit:bool ->
  ?progress:(string -> unit) ->
  n:int ->
  unit ->
  Tapestry.Network.t * scale_point
(** One size: generate a uniform-square topology, build streamed, sample
    [queries] locates over [objects] published objects, optionally audit.
    [now] injects wall-clock (the default returns 0, zeroing the wall
    fields but nothing else); everything except the wall/RSS/GC fields is
    deterministic in [seed] and independent of [domains]. *)

val scale :
  ?seed:int ->
  ?domains:int ->
  ?now:(unit -> float) ->
  ?objects:int ->
  ?queries:int ->
  ?audit:bool ->
  ?progress:(string -> unit) ->
  sizes:int list ->
  unit ->
  scale_point list * Simnet.Stats.Table.t
(** Run the sizes sequentially (each network dropped before the next, so
    peak residency is one mesh) and render the summary table. *)
