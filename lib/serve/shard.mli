(** Windowed barrier-synchronous shard engine for the serving runtime
    (DESIGN.md section 9).

    Handles are partitioned over a fixed grid of {!shard_count} logical
    shards; the domain count only folds the grid onto OS domains, so a
    run's results are bit-identical for every [--domains] value.  Within
    a window each shard runs its private event heap independently;
    outbox exchange, churn and dead-entry repair happen sequentially at
    the barriers, in shard index order. *)

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
  mutable drain : float;  (** shard windows: the event loops *)
  mutable flush : float;  (** barrier outbox exchange *)
  mutable repair : float;  (** barrier dead-entry repair *)
  mutable intents : float;  (** barrier cache intents *)
  mutable digest : float;  (** barrier hint digest *)
  mutable churn : float;
      (** [on_barrier] (churn), capacity sync, request-slot reclaim
          and the next-work scan *)
  mutable collect : float;  (** driver: merging the shards' counters *)
}

type t = {
  sh : Actor.shared;
  ctxs : Actor.ctx array;  (** length {!shard_count} *)
  window : float;
  mutable barriers : int;  (** barriers executed so far *)
  ledger : ledger;  (** this run's wall phases *)
  b1 : Mailbox.Rows.t array;
      (** digit buckets (coop only, else empty): digest rows grouped by
          the first one ([b1], one bucket per digit) / two ([b2], one
          per digit pair) digits of their object's root guid, as
          (key, srv, epoch) rows rebuilt at every barrier — the walk
          geometry says those are the nodes a future climb for that
          object funnels through *)
  b2 : Mailbox.Rows.t array;
}

val create :
  net:Network.t -> guids:Node_id.t array -> roots:int -> ttl:float ->
  latency:float -> service:float -> mailbox_cap:int -> seed:int ->
  window:float -> cache:Obj_cache.t -> coop:bool -> t
(** Build the engine: per shard one mailbox (payload pool plus the
    per-handle FIFO cells of its handles, sized to the network), one
    request slot pool (empty until its injector opens a slot; see
    {!Actor.open_req}) and one {!Actor.ctx} with an independent
    [Parallel.task_rng] stream; nothing is sized by the request count.
    [cache] is the per-node object caches, zero-way for an
    uncached run (fills, evicts and epoch bumps buffered per shard are
    applied at each barrier in shard order, bumps first, then evicts,
    then fills).  [coop] (see DESIGN.md section 11) adds the
    barrier-ordered hint exchange after the intent pass: the window's
    cache hits, bucketed by root-guid digits, are offered to the nodes
    that missed.  It is forced off for a zero-way cache.
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
    outbox exchange and repair — churn injection goes here.  The
    request slots settled in the window (and by the barrier's kills)
    go back to their owners' free lists after it. *)

val kill_node : t -> Node.t -> unit
(** Barrier-only node failure: dead-letter the queued messages (a
    request's fails it, a chain message's counts as a chain loss), clear
    the mailbox (its slots return to the owner shard's pool), then
    [Delete.fail].  Its messages in flight or in service become dead
    letters when they next come up, by the node's liveness alone. *)

val sync_capacity : t -> unit
(** Barrier-only: grow every shard's per-handle mailbox cells, the
    object cache lines and the dirty set after joins
    ({!run} calls it after every [on_barrier]). *)

val quiesce : t -> clock:float -> unit
(** Drive the mesh to an auditable quiescent point: set the virtual
    clock, repair dead links and holes, drop backpointers with dead
    sources, expire stale pointers.  [Audit.run] must be clean after
    this, churn or not. *)
