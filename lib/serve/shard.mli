(** Windowed barrier-synchronous shard engine for the serving runtime
    (DESIGN.md section 9).

    Handles are partitioned over a fixed grid of {!shard_count} logical
    shards; the domain count only folds the grid onto OS domains, so a
    run's results are bit-identical for every [--domains] value.  Within
    a window each shard pumps its private transport heap and timer heap
    independently; outbox exchange, churn and dead-entry
    repair happen sequentially at the barriers, in shard index order. *)

open Tapestry

val shard_count : int
(** Fixed at 64, like the streamed-build shard sweep. *)

val shard_of : int -> int
(** Owning shard of an arena handle. *)

(** Wall seconds of one serve run by phase, read with a caller-supplied
    clock around whole phases (a handful of readings per barrier, none
    per message).  {!run} fills the engine phases; [setup] and
    [collect] are filled by [Driver.run].  Without a clock every field
    stays 0. *)
type ledger = {
  mutable setup : float;  (** driver: object guids, placement, engine set-up *)
  mutable drain : float;  (** shard windows: timer and transport pumps *)
  mutable flush : float;  (** barrier outbox exchange *)
  mutable repair : float;  (** barrier dead-entry repair *)
  mutable intents : float;  (** barrier cache intents *)
  mutable digest : float;  (** barrier hint digest *)
  mutable churn : float;
      (** [on_barrier] (churn), capacity sync and the next-work scan *)
  mutable collect : float;  (** driver: merging the shards' counters *)
}

type t = {
  sh : Actor.shared;
  ctxs : Actor.ctx array;  (** length {!shard_count} *)
  window : float;
  mutable barriers : int;  (** barriers executed so far *)
  ledger : ledger;  (** this run's wall phases *)
  b1_cnt : int array;
      (** digit buckets (coop only, else empty): digest rows grouped by
          the first one ([b1]) / two ([b2]) digits of their object's
          root guid, as (key, srv, gen, epoch) quadruples rebuilt at
          every barrier — the walk geometry says those are the nodes a
          future climb for that object funnels through *)
  b1_rows : int array;
  b2_cnt : int array;
  b2_rows : int array;
}

val create :
  net:Network.t -> guids:Node_id.t array -> roots:int -> ttl:float ->
  latency:float -> service:float -> requests:int -> mailbox_cap:int ->
  seed:int -> window:float -> cache:Obj_cache.t option -> coop:bool -> t
(** Build the engine: one mailbox arena sized to the network, one
    {!Actor.ctx} per shard with an independent [Parallel.task_rng]
    stream.  [cache] attaches the per-node object caches (fills, evicts
    and epoch bumps buffered per shard are applied at each barrier in
    shard order, bumps first, then evicts, then fills).  [coop] (see
    DESIGN.md section 11) adds the barrier-ordered hint exchange after
    the intent pass: the window's cache hits, bucketed by root-guid
    digits, are offered to the nodes that missed.  It is forced off
    without a cache.
    @raise Invalid_argument if [window <= 0]. *)

val run :
  ?clock:(unit -> float) -> t -> domains:int -> now:(unit -> float) ->
  on_barrier:(t -> float -> unit) -> unit
(** Run windows until no shard has pending work.  [domains <= 1] runs
    the grid sequentially on the calling domain.  [now] supplies wall
    stamps (written into [sh.wall.(0)] at each barrier, info only), one
    call at entry and one per barrier.  [clock] times the engine phases
    into [t.ledger] (six readings per barrier); it is a separate
    argument so that callers which treat each [now] call as a progress
    stamp see the same stamps with or without the ledger.
    [on_barrier t barrier] runs sequentially at every barrier after
    outbox exchange and repair — churn injection goes here. *)

val kill_node : t -> Node.t -> unit
(** Barrier-only node failure: dead-letter the queued requests, clear
    the mailbox, bump its generation, then [Delete.fail]. *)

val sync_capacity : t -> unit
(** Barrier-only: grow the mailbox arena and dirty set after joins
    ({!run} calls it after every [on_barrier]). *)

val quiesce : t -> clock:float -> unit
(** Drive the mesh to an auditable quiescent point: set the virtual
    clock, repair dead links and holes, drop backpointers with dead
    sources, expire stale pointers.  [Audit.run] must be clean after
    this, churn or not. *)
