(** Per-node actors: mailbox drains and the per-message protocol state
    machine of the serving runtime (DESIGN.md section 9).  A drain is
    driven by the shard's {!Mailbox.Events} heap: a drain-start event
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

    Every hop is one {!Tapestry.Route.step}, the sync walks' own
    routing step.  Every function here runs on the shard owning the
    target node and touches only that shard's state plus the
    partitioned per-node stores; dead routing entries the step meets
    are queued for the barrier, never purged in place. *)

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
(** Engine event kind that runs the shard's injector step
    ([ctx.inject]).  The other engine kinds, drain start and service
    done, carry a handle and its mailbox generation and stay internal.
    All three are negative, apart from every opcode. *)

(** Run-global immutable tables plus the few cross-shard cells written
    only at barriers ([wall], [dirty]) or at disjoint indices
    ([req_*], partitioned by per-shard request-id ranges). *)
type shared = {
  net : Network.t;
  mbs : Mailbox.t array;
      (** per shard: the message store of the handles [h] with
          [h mod shards = s]; its pool backs shard [s]'s event heap *)
  shards : int;  (** fixed partition count, independent of [--domains] *)
  guids : Node_id.t array;  (** [oi = obj * roots + r] -> salted guid *)
  roots : int;
  ttl : float;  (** expiry horizon of serve-time pointer deposits *)
  latency : float;  (** virtual seconds per unit of metric distance *)
  service : float;  (** virtual seconds an actor spends per message *)
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
  req_path : Bytes.t;
      (** [requests * path_cap] recorded locate hops, 32-bit native-endian
          handles (4 bytes each); a request's hops are causally ordered
          across shards, so the disjoint-slice writes are race-free.
          Empty at [--cache 0]. *)
  req_plen : Bytes.t;  (** per request: hops recorded (saturates) *)
  coop : bool;
      (** cooperative hint exchange on (DESIGN.md section 11): cache
          hits are digested and misses join the want ring *)
  mutable want_stamp : int array;
      (** per handle: window of the last logged want (owner-shard
          written, so disjoint); empty when coop is off *)
  win : int array;  (** [win.(0)]: window counter, barrier-written *)
}

(** Per-shard private world: event heap (and clock), outbox,
    RNG, cost and latency accounting, plus mutable scratch so the hot
    dispatch path allocates nothing. *)
type ctx = {
  sh : shared;
  shard : int;
  q : Mailbox.Events.q;
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
  mutable dead : Node.t -> int -> bool;
      (** the dead-entry hook this shard's {!Tapestry.Route.step} calls:
          it queues the owner for barrier repair and leaves the slot
          alone *)
  mutable best_h : int;
  sel_f : float array;
      (** [sel_f.(0)]: the best server's distance so far, [sel_f.(1)]:
          the probe's time; float-array cells, so writes allocate
          nothing *)
  mutable cur : Node.t;
  mutable sel : Pointer_store.cols -> int -> unit;
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
  net:Network.t -> mbs:Mailbox.t array -> shards:int -> guids:Node_id.t array ->
  roots:int -> ttl:float -> latency:float -> service:float ->
  requests:int -> cache:Obj_cache.t option -> coop:bool -> shared
(** [coop] is forced off when [cache = None]. *)

val make_ctx : shared -> shard:int -> rng:Simnet.Rng.t -> ctx
(** The ctx's event heap parks payloads in [mbs.(shard)]'s pool. *)

val generation : shared -> int -> int
(** Mailbox generation of any handle, read from its owner shard's
    store (generations move only at barriers). *)

val request_bytes : shared -> int
(** Estimated resident bytes of the per-request arrays ([req_t0] ..
    [req_plen]) and the per-handle [dirty] and [want_stamp] marks. *)

val send :
  ctx -> time:float -> h:int -> kind:int -> req:int -> oi:int ->
  level:int -> prev:int -> src:int -> unit
(** Route a message to handle [h]: same-shard straight into this shard's
    event heap, cross-shard into the outbox for the barrier.  Captures
    the target's mailbox generation at send time. *)

val complete_failed : ctx -> req:int -> unit

val count_dead_letter : ctx -> req:int -> unit
(** A message whose target died: count it and fail its request. *)

val run_until : ctx -> float -> unit
(** The shard's event loop: pop and run every event at or before the
    limit, including events pushed meanwhile, in (time, class, push
    sequence) order — a message is delivered (dead letter, mailbox
    overflow, or enqueued with a drain start scheduled at once if the
    actor is idle), a drain start or service done advances the node's
    drain, an injector step runs [ctx.inject] — then lift the shard
    clock to the limit. *)
