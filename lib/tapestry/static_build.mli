(** Global-knowledge construction of a perfect Tapestry network.

    Builds, by global brute force, the network that the PRR preprocessing
    step would produce: every slot of every node holds exactly the R closest
    matching nodes (Properties 1 and 2 exactly, not just with high
    probability).  Experiments use it as the ground truth that incremental
    construction is measured against (E11) and as a fast setup path. *)

val build :
  ?seed:int -> Config.t -> Simnet.Metric.t -> addrs:int list -> Network.t
(** One active node per metric point in [addrs], random distinct IDs,
    perfect tables with symmetric backpointers. *)

val populate_links : Network.t -> unit
(** Rebuild perfect tables for every alive node of an existing network
    (idempotent; used to repair or to upgrade a partially built network to
    the oracle state). *)

(** {2 Streamed construction (scale tier)}

    Builds 10^5–10^6-node meshes by dynamic insertion without any per-node
    intermediate list: each {!Insert.report} is folded into streaming
    moment accumulators and dropped, the directory structures are pre-sized
    from [n] ({!Config.expected_nodes}), and the post-build per-node sweep
    is sharded across domains over a fixed 64-shard grid.

    Determinism: the insertion sequence (RNG draw order, staged pipeline,
    Scratch reuse) is exactly {!Insert.build_incremental}'s, so the mesh is
    bit-identical to an incremental build with the same seed and addresses;
    and because shard boundaries and the integer shard combine are
    independent of [domains], the returned stats are bit-identical for any
    domain count. *)

type dist_summary = { mean : float; sd : float; max : float }

type stream_stats = {
  n : int;  (** nodes inserted (bootstrap included) *)
  msgs : dist_summary;  (** per-insertion messages, all joins *)
  msgs_late : dist_summary;
      (** joins into the second half (i >= n/2) — the steady-state
          Θ(log² n) cost the paper's E1 fits *)
  hops : dist_summary;  (** per-insertion critical-path hops *)
  latency : dist_summary;  (** per-insertion latency *)
  multicast_reached : dist_summary;  (** alpha-nodes per insertion *)
  pointers_transferred : int;  (** pointer records re-rooted, total *)
  entries : dist_summary;  (** per-alive-node routing-table entries *)
  backpointers : dist_summary;  (** per-alive-node backpointers *)
  footprint : Network.footprint;  (** resident-size estimate at the end *)
}

val build_streamed :
  ?seed:int ->
  ?domains:int ->
  ?batch:int ->
  ?addr_of:(int -> int) ->
  ?progress:(inserted:int -> total:int -> unit) ->
  Config.t ->
  Simnet.Metric.t ->
  n:int ->
  Network.t * stream_stats
(** [build_streamed cfg metric ~n] inserts nodes at addresses
    [addr_of 0 .. addr_of (n-1)] (default: the identity — metric point [i]
    for node [i]).  [progress] fires every [batch] (default 4096) joins and
    once at the end.  [domains] parallelizes only the read-only post-build
    sweep.  If [cfg.expected_nodes] is 0 it is set to [n]. *)

val table_quality : Network.t -> oracle:Network.t -> float
(** Fraction of non-empty slots of [oracle] whose primary distance is
    matched (or beaten) in the corresponding node of the other network.
    Networks must have the same node IDs and addresses. *)
