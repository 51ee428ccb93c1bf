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
      (** {!Obj_cache} ways per node; [0] (the default) disables caching
          and reproduces the uncached engine's counters bit-identically *)
  coop : bool;
      (** cooperative hint exchange (DESIGN.md section 11): each
          window's cache hits, bucketed by the first digits of the
          object's root guids, are offered at the barrier to the nodes
          that missed.  Requires [cache_size > 0] *)
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
  failed : int;  (** all non-ok terminals, [dropped] and [dead_letter] included *)
  dropped : int;  (** mailbox-overflow backpressure drops *)
  dead_letter : int;  (** messages for nodes that died in flight *)
  delivered : int;
  kills : int;
  joins : int;
  duration_v : float;  (** virtual time of the last barrier *)
  wall_s : float;
  barriers : int;
  tally : Simnet.Stats.Tally.t;
      (** merged cache counters, all-zero at [cache_size = 0] *)
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

val signature : result -> string
(** Deterministic fingerprint: counters plus the virtual histogram,
    excluding every wall-derived quantity.  Equal strings across
    [--domains] values is the serve determinism guarantee. *)
