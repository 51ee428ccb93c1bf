(** Per-node actors: mailbox drains and the per-message protocol state
    machine of the serving runtime (DESIGN.md section 9).  A drain is
    driven by the shard's {!Mailbox.Timer} heap: a drain-start event
    pops the next message into the node's in-service slot, and its
    service-done event dispatches it and pops the next.

    Opcodes: LOCATE walks toward the object's root, redirecting to the
    closest live server as soon as it meets a usable pointer (the
    closest-replica rule of Section 2.4); FETCH completes at the server
    iff it still stores the replica; PUBLISH deposits soft-state
    pointers along the walk with the previous-hop backlink; UNPUBLISH
    retracts along the same walk; LOCATE_NC is the cache-free climb a
    request's last redirects use.

    With an {!Tapestry.Obj_cache} attached (PR 9, DESIGN.md section 10),
    LOCATE probes the hop's own cache line before the pointer store and
    a valid entry redirects the FETCH immediately.  Cross-node cache
    mutations (fills from successful fetches, evicts of entries caught
    lying, epoch bumps at unpublish origins) are logged in per-shard
    intent buffers and applied at the barrier in shard order, keeping
    the engine bit-identical for any [--domains].

    {b Redirect budget.}  A stale FETCH (the replica left) and an
    overflowed cache-hit FETCH whose holder is alive each spend one
    unit of the request's redirect count [rc] and resume the climb, at
    the server or at the holder.  Overflow re-climbs and climbs with
    [rc >= rc_max] are cache-free LOCATE_NC walks; a request that would
    reach [rc > rc_max + 1] fails.  Recovery needs a cache, so at
    [cache = None] [rc] stays 0 and every message is byte-identical to
    the uncached engine.

    Every function here runs on the shard owning the target node and
    touches only that shard's state plus the partitioned per-node
    stores; dead routing entries seen mid-scan are queued for the
    barrier, never purged in place. *)

open Tapestry
module Hist = Simnet.Stats.Hist

val op_locate : int
val op_fetch : int
val op_publish : int
val op_unpublish : int
val op_locate_nc : int

val rc_shift : int
(** LOCATE and LOCATE_NC pack [walk_level lor (rc lsl rc_shift)];
    FETCH carries [rc] as its level. *)

val rc_max : int
(** Redirects after which climbs go cache-free; at most [rc_max + 1]
    recoveries per request. *)

val path_cap : int
(** Recorded locate hops per request (fill-intent targets). *)

val st_pending : char
val st_ok : char
val st_failed : char
val st_dropped : char
val st_dead_letter : char

val ev_inject : int
(** Timer event kind that runs the shard's injector step
    ([ctx.inject]).  The other kinds, drain start and service done,
    carry a handle and its mailbox generation and stay internal. *)

(** Run-global immutable tables plus the few cross-shard cells written
    only at barriers ([wall], [dirty]) or at disjoint indices
    ([req_*], partitioned by per-shard request-id ranges). *)
type shared = {
  net : Network.t;
  mb : Mailbox.t;
  shards : int;  (** fixed partition count, independent of [--domains] *)
  guids : Node_id.t array;  (** [oi = obj * roots + r] -> salted guid *)
  roots : int;
  ttl : float;  (** expiry horizon of serve-time pointer deposits *)
  latency : float;  (** virtual seconds per unit of metric distance *)
  service : float;  (** virtual seconds an actor spends per message *)
  digits : int;
  base : int;
  req_t0 : float array;  (** per request: virtual injection time *)
  req_w0 : float array;  (** per request: wall stamp of injection window *)
  req_status : Bytes.t;
  wall : float array;  (** [wall.(0)]: stamp of the window, barrier-written *)
  mutable dirty : Bytes.t;  (** per handle: queued for dead-entry repair? *)
  cache : Obj_cache.t option;
      (** per-node object caches; probes and touches stay own-line
          (shard-confined), cross-node mutations ride the ctx intent
          buffers to the barrier *)
  req_path : int array;
      (** [requests * path_cap] recorded locate hops; a request's hops
          are causally ordered across shards, so the disjoint-slice
          writes are race-free.  Empty at [--cache 0]. *)
  req_plen : Bytes.t;  (** per request: hops recorded (saturates) *)
  coop : bool;
      (** cooperative hint exchange on (DESIGN.md section 11): cache
          hits are digested and misses join the want ring *)
  mutable want_stamp : int array;
      (** per handle: window of the last logged want (owner-shard
          written, so disjoint); empty when coop is off *)
  win : int array;  (** [win.(0)]: window counter, barrier-written *)
}

(** Per-shard private world: timer heap (and clock), transport, outbox,
    RNG, cost and latency accounting, plus mutable scratch so the hot
    dispatch path allocates nothing. *)
type ctx = {
  sh : shared;
  shard : int;
  tm : Mailbox.Timer.tm;
  tr : Mailbox.Transport.tr;
  out : Mailbox.Outbox.ob;
  rng : Simnet.Rng.t;
  cost : Simnet.Cost.t;
  hist_v : Hist.h;
  hist_w : Hist.h;
  mutable injected : int;
  mutable completed : int;
  mutable failed : int;
  mutable dropped : int;
  mutable dead_letter : int;
  mutable delivered : int;
  mutable inject : ctx -> unit;
      (** the injector's step, run on each {!ev_inject} event; a no-op
          until the driver sets it *)
  mutable inj_k : int;  (** requests injected so far; [-1] before the start event *)
  mutable dirty_h : int array;
  mutable dirty_len : int;
  mutable scan_h : int;
  mutable scan_level : int;
  mutable best_h : int;
  mutable best_d : float;
  mutable pred_now : float;
  mutable cur : Node.t;
  mutable sel : Pointer_store.record -> unit;
  tally : Simnet.Stats.Tally.t;  (** cache hit/miss/stale/... counters *)
  mutable fi_h : int array;  (** fill intents: target cache line *)
  mutable fi_key : int array;
  mutable fi_srv : int array;
  mutable fi_gen : int array;
  mutable fi_epoch : int array;  (** epoch snapshot at intent-log time *)
  mutable fi_len : int;
  mutable ev_h : int array;  (** evict intents: holder line *)
  mutable ev_key : int array;
  mutable ev_srv : int array;  (** retract only if still naming this *)
  mutable ev_len : int;
  mutable ep_key : int array;  (** epoch bumps (unpublish origins) *)
  mutable ep_srv : int array;  (** ... of this retracting server *)
  mutable ep_len : int;
  mutable hd_key : int array;
      (** hint digest: this window's cache hits as (key, srv, gen,
          epoch) rows, at most {!digest_cap} distinct pairs *)
  mutable hd_srv : int array;
  mutable hd_gen : int array;
  mutable hd_epoch : int array;
  mutable hd_len : int;
  mutable wt_h : int array;
      (** want ring: this shard's nodes that missed this window, one
          entry per node per window *)
  mutable wt_len : int;
}

val digest_cap : int
(** Distinct (key, server) pairs a shard's per-window digest tracks. *)

val make_shared :
  net:Network.t -> mb:Mailbox.t -> shards:int -> guids:Node_id.t array ->
  roots:int -> ttl:float -> latency:float -> service:float ->
  requests:int -> cache:Obj_cache.t option -> coop:bool -> shared
(** [coop] is forced off when [cache = None]. *)

val make_ctx : shared -> shard:int -> rng:Simnet.Rng.t -> ctx

val send :
  ctx -> time:float -> h:int -> kind:int -> req:int -> oi:int ->
  level:int -> prev:int -> src:int -> unit
(** Route a message to handle [h]: same-shard straight into this shard's
    transport, cross-shard into the outbox for the barrier.  Captures
    the target's mailbox generation at send time. *)

val complete_failed : ctx -> req:int -> unit

val deliver : ctx -> time:float -> unit
(** Deliver the transport message just popped into [ctx.tr]'s out
    fields: generation mismatches and dead targets are dead letters,
    ring overflow drops the newcomer, otherwise the message is enqueued
    and, if the actor is idle, a drain-start event is pushed at
    [max time clock]. *)

val run_until : ctx -> float -> unit
(** Run every timer event at or before the limit, including events
    pushed meanwhile, in (time, push sequence) order; then lift the
    shard clock to the limit. *)
