(** Per-node actors: mailbox drains and the per-message protocol state
    machine of the serving runtime (DESIGN.md section 9).  A delivery
    that finds the actor idle starts its drain at once: the drain pops
    the next message into the node's in-service slot, and the
    service-done event the shard's {!Mailbox.Events} heap holds for it
    dispatches it and pops the next, until the queue is empty.

    Opcodes: LOCATE walks toward the object's root, redirecting to the
    closest live server as soon as it meets a usable pointer (the
    closest-replica rule of Section 2.4); FETCH completes at the server
    iff it still stores the replica; PUBLISH deposits soft-state
    pointers along the walk with the previous-hop backlink; UNPUBLISH
    retracts along the same walk; LOCATE_NC is the cache-free climb a
    request's last redirects use.

    LOCATE probes the hop's own {!Tapestry.Obj_cache} line (DESIGN.md
    section 10) before the pointer store and a valid entry
    redirects the FETCH immediately; a zero-way cache misses every
    probe.  Cross-node cache
    mutations (fills from successful fetches, evicts of entries caught
    lying, epoch bumps at unpublish origins) are logged in per-shard
    {!Mailbox.Rows} logs and applied at the barrier in shard order, keeping
    the engine bit-identical for any [--domains].

    {b Redirect budget.}  A stale FETCH (the replica left) and an
    overflowed cache-hit FETCH whose holder is alive each spend one
    unit of the request's redirect count [rc] and resume the climb, at
    the server or at the holder.  Overflow re-climbs and climbs with
    [rc >= rc_max] are cache-free LOCATE_NC walks; a request that would
    reach [rc > rc_max + 1] fails, counted in [exhausted].  A pointer can
    outlive its replica with or without a cache (soft state), so the
    rule is the same at every cache size.

    {b Request slots.}  A request's mutable state — its injection
    stamps and recorded locate path — lives in a slot of its injecting
    shard's pool ({!open_req}) while it is in flight, and messages
    carry the slot's tag as [req].  Only one message of a request is
    ever live, so one shard at a time writes a slot; when the request
    completes or fails, the settling shard counts it (in [completed],
    or in [failed] and one cause counter) and links the slot onto its
    list for the owner, which the next barrier splices onto the owner's
    free list ({!reclaim}).  Request memory so follows the load in
    flight, about the rate times (latency + window), and nothing is kept
    per request of the run.

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
(** Recorded locate hops per request slot (fill-intent targets); it
    sizes each in-flight slot, not each request of the run. *)

val ev_inject : int
(** Engine event kind that runs the shard's injector step
    ([ctx.inject]).  The other engine kind, service done, carries the
    handle of the node whose drain it advances and stays internal.
    Both are negative, apart from every opcode. *)

val slot_seg : int
(** Slots per pool segment: a pool grows by appending one, so no slot
    moves while another shard writes it. *)

type slot_seg = {
  s_t0 : float array;  (** virtual injection time *)
  s_w0 : float array;  (** wall stamp of the injection window *)
  s_next : int array;
      (** next free slot while the slot is free; once settled, the
          next slot on the settling shard's [settled] list for the
          owner *)
  s_plen : Bytes.t;  (** locate hops recorded (saturates at {!path_cap}) *)
  s_path : Bytes.t;
      (** {!path_cap} recorded hops per slot, 32-bit native-endian
          handles; empty for a zero-way cache *)
}

(** One shard's request slots, free-listed like {!Mailbox}'s payload
    pool. *)
type slots = {
  mutable segs : slot_seg array;
  mutable free : int;  (** first free slot, -1 when none *)
  mutable used : int;  (** slots ever handed out: the high-water mark *)
}

(** Run-global immutable tables plus the few cross-shard cells written
    only at barriers ([wall], [dirty]) or at disjoint indices (request
    slots, by the one live message of each request; [want_stamp], by
    the owner shard of each handle). *)
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
  tag_bits : int;
      (** a slot tag is [(slot lsl tag_bits) lor owner]: the bits that
          hold a shard number *)
  slots : slots array;
      (** per shard: the slots of the requests it injected, opened by
          its injector and reclaimed at barriers *)
  wall : float array;  (** [wall.(0)]: stamp of the window, barrier-written *)
  mutable dirty : Bytes.t;  (** per handle: queued for dead-entry repair? *)
  cache : Obj_cache.t;
      (** per-node object caches, possibly zero-way; probes and touches
          stay own-line (shard-confined), cross-node mutations ride the
          ctx intent logs to the barrier *)
  coop : bool;
      (** cooperative hint exchange on (DESIGN.md section 11): cache
          hits are digested and misses join the want ring *)
  mutable want_stamp : int array;
      (** per handle: window of the last logged want (owner-shard
          written, so disjoint); empty when coop is off *)
  win : int array;  (** [win.(0)]: window counter, barrier-written *)
}

(** Per-shard private world: event heap (and clock), outbox,
    RNG, latency accounting, plus mutable scratch so the hot
    dispatch path allocates nothing. *)
type ctx = {
  sh : shared;
  shard : int;
  q : Mailbox.Events.q;
  out : Mailbox.Outbox.ob;
  rng : Simnet.Rng.t;
  hist_v : Hist.h;
  hist_w : Hist.h;
  mutable injected : int;
  mutable completed : int;
  mutable failed : int;
  mutable dropped : int;  (** requests lost to a full mailbox *)
  dropped_by : int array;  (** [dropped] by opcode of the dropped message *)
  mutable dead_letter : int;  (** requests lost to a dead target *)
  mutable chain_lost : int;
      (** fire-and-forget chain messages ([req < 0]) dropped or dead:
          they fail no request, so they are no failure cause *)
  mutable exhausted : int;
      (** requests failed at the FETCH site: replica gone, redirect
          budget spent *)
  mutable root_miss : int;
      (** requests failed at the root: the climb met no usable pointer *)
  mutable delivered : int;
  mutable inject : ctx -> unit;
      (** the injector's step, run on each {!ev_inject} event; a no-op
          until the driver sets it *)
  mutable inj_k : int;  (** requests injected so far; [-1] before the start event *)
  settled : int array;
      (** per owner shard: the newest slot this shard settled since the
          last barrier, the head of a list linked through [s_next]
          (-1: none) *)
  settled_tail : int array;  (** per owner shard: that list's oldest slot *)
  settled_owners : Mailbox.Rows.t;  (** the owners whose list is not empty *)
  repairs : Mailbox.Rows.t;
      (** owners whose tables hold dead entries this shard's walks
          met, one row each, drained by the barrier's repair *)
  mutable dead : Node.t -> int -> bool;
      (** the dead-entry hook this shard's {!Tapestry.Route.step} calls:
          it queues the owner for barrier repair and leaves the slot
          alone *)
  mutable best_h : int;
  sel_f : float array;
      (** [sel_f.(0)]: the best server's distance so far; a float-array
          cell, so writes allocate nothing *)
  mutable cur : Node.t;
  mutable sel : Pointer_store.cols -> int -> unit;
  tally : Simnet.Stats.Tally.t;  (** cache hit/miss/stale/... counters *)
  fills : Mailbox.Rows.t;
      (** fill intents: (target line, key, server, epoch snapshot at
          intent-log time) *)
  evicts : Mailbox.Rows.t;
      (** evict intents: (holder line, key, server); retract only if the
          entry still names that server *)
  bumps : Mailbox.Rows.t;
      (** epoch bumps: (key, retracting server), unpublish origins *)
  digest : Mailbox.Rows.t;
      (** hint digest: this window's cache hits as (key, srv, epoch)
          rows, at most {!digest_cap} distinct (key, srv) pairs *)
  wants : Mailbox.Rows.t;
      (** want ring: this shard's nodes that missed this window, one
          row per node per window *)
}

val digest_cap : int
(** Distinct (key, server) pairs a shard's per-window digest tracks. *)

val make_shared :
  net:Network.t -> mbs:Mailbox.t array -> shards:int -> guids:Node_id.t array ->
  roots:int -> ttl:float -> latency:float -> service:float ->
  cache:Obj_cache.t -> coop:bool -> shared
(** [coop] is forced off for a zero-way cache, and slots record paths
    only when the cache has ways. *)

val make_ctx : shared -> shard:int -> rng:Simnet.Rng.t -> ctx
(** The ctx's event heap parks payloads in [mbs.(shard)]'s pool. *)

val request_bytes : shared -> int
(** Estimated resident bytes of the request slot pools and the
    per-handle [dirty] and [want_stamp] marks. *)

val open_req : ctx -> int
(** Open a slot on this shard for a new request, stamped with the
    shard's clock and the window's wall stamp; returns the tag its
    messages carry as [req]. *)

val path_len : shared -> int -> int
(** Locate hops recorded in a slot (0 for a zero-way cache). *)

val path_hop : shared -> int -> int -> int
(** [path_hop sh tag k]: the handle of the slot's [k]-th recorded hop.
    A settled request's slot keeps its path until the slot is opened
    again. *)

val reclaim : ctx -> unit
(** Barrier step: splice every slot this shard settled since the last
    barrier onto its owner's free list: one splice per owner shard
    whose requests it settled, whatever the number of slots. *)

val send :
  ctx -> time:float -> h:int -> kind:int -> req:int -> oi:int ->
  level:int -> prev:int -> src:int -> unit
(** Route a message to handle [h]: same-shard straight into this shard's
    event heap, cross-shard into the outbox for the barrier.  A target
    that dies before delivery makes the message a dead letter. *)

val count_dead_letter : ctx -> req:int -> unit
(** A message whose target died: fail its request, counted in
    [dead_letter], or, for a fire-and-forget chain message, count it in
    [chain_lost]. *)

val run_until : ctx -> float -> unit
(** The shard's event loop: pop and run every event at or before the
    limit, including events pushed meanwhile, in (time, class, push
    sequence) order — a message is delivered (dead letter, mailbox
    overflow, or enqueued, its drain started at once if the actor is
    idle), a service done advances the node's drain, an injector step
    runs [ctx.inject] — then lift the shard clock to the limit. *)
