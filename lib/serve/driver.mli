(** Open-loop load generator for the serving runtime (DESIGN.md
    section 9): per-shard Poisson injectors over a Zipf(s) object
    popularity, a locate/publish/unpublish mix, and optional
    barrier-time churn.  Everything is seeded from [params.seed], so a
    run's {!signature} is bit-identical for every domain count. *)

open Tapestry
module Hist = Simnet.Stats.Hist

type params = {
  seed : int;
  requests : int;  (** total requests, split evenly over the shards *)
  rate : float;  (** aggregate arrivals per virtual second *)
  zipf_s : float;  (** popularity skew; 0 = uniform *)
  objects : int;
  p_publish : float;  (** fraction of requests that publish a replica *)
  p_unpublish : float;  (** fraction that retract an earlier publish *)
  latency : float;  (** virtual seconds per unit of metric distance *)
  service : float;  (** virtual seconds of actor work per message *)
  ttl : float;  (** serve-time pointer expiry horizon *)
  window : float;  (** barrier window width, virtual seconds *)
  mailbox_cap : int;
  kill_rate : float;  (** node failures per virtual second *)
  join_rate : float;  (** churn joins per virtual second *)
  domains : int;  (** OS domains; [<= 0] uses [Parallel.recommended] *)
  cache_size : int;
      (** {!Obj_cache} ways per node; [0] (the default) is a zero-way
          cache: every probe misses, and a FETCH racing an unpublish
          recovers as at any size *)
  coop : bool;
      (** cooperative hint exchange (DESIGN.md section 11): each
          window's cache hits, bucketed by the first digits of the
          object's root guids, are offered at the barrier to the nodes
          that missed.  Effective only at [cache_size > 0] *)
}

val default : params
(** seed 42, 10^5 requests at 5.10^4/s, Zipf 0.9 over 10^3 objects,
    5% publish / 1% unpublish, no churn, no cache, coop off. *)

type result = {
  engine : Shard.t;  (** the engine; [engine.ledger] holds the run's wall phases *)
  hist_v : Hist.h;  (** merged virtual-latency histogram (completed) *)
  hist_w : Hist.h;  (** merged wall-latency histogram (info only) *)
  injected : int;
  completed : int;
  failed : int;
      (** all non-ok terminals, [dropped + dead_letter + exhausted +
          root_miss] at every root-set size *)
  dropped : int;  (** requests lost to mailbox-overflow backpressure *)
  dropped_by : int array;
      (** [dropped] by opcode of the dropped message ({!Actor.op_locate}
          .. {!Actor.op_locate_nc}); sums to [dropped] *)
  dead_letter : int;  (** requests whose message reached a dead node *)
  exhausted : int;  (** FETCH site: replica gone, redirect budget spent *)
  root_miss : int;  (** climbs that reached the root without a usable pointer *)
  chain_lost : int;
      (** fire-and-forget chain messages (roots [r > 0]) dropped or dead
          on arrival; they fail no request *)
  delivered : int;
  kills : int;
  joins : int;
  duration_v : float;  (** virtual time of the last barrier *)
  wall_s : float;
  barriers : int;
  tally : Simnet.Stats.Tally.t;
      (** merged cache counters; at [cache_size = 0] only misses and
          FETCH-race recoveries move *)
}

val run :
  ?clock:(unit -> float) -> net:Network.t -> params -> now:(unit -> float) ->
  result
(** Serve [params.requests] over [net].  The network should be built
    with a [pointer_ttl] comfortably above the expected virtual
    duration, or the initial placement expires mid-run.  [now] supplies
    wall stamps (monotonic seconds); it is called once at entry, once
    when the engine starts, once per barrier and once at the end, and
    never influences results.  [clock] (same units) times the wall
    ledger [engine.ledger]: set-up, the engine phases of
    {!Shard.run}, and the final collection, which together tile
    [wall_s].  Without it the ledger stays 0.
    Object GUIDs are distinct from each other and from every registered
    node ID.
    @raise Invalid_argument on non-positive [objects] or [rate], or when
    the ID space has fewer unused IDs than [objects]. *)

val memory_ledger : result -> (string * int) list
(** Estimated resident bytes after the run, by part: routing tables,
    pointer stores, object cache, mailbox (every shard's message pool,
    per-handle FIFO cells, event heap and outbox), requests (the slot
    pools of the requests in flight, and the per-handle repair and
    want marks), id index, the GUID table ([objects * roots] IDs, one
    word each) and the rest of the network ({!Tapestry.Network.memory_footprint}'s node,
    directory, metric and scratch buckets).  Deterministic: a function of
    the run's counters and sizes, not of the machine. *)

val signature : result -> string
(** Deterministic fingerprint: counters (cache and hint counters
    always included; failure causes, drops by class and chain losses
    left out) plus the virtual
    histogram, excluding every wall-derived quantity.  Equal strings across
    [--domains] values is the serve determinism guarantee. *)
