(* Per-node actors: mailbox drains and the per-message protocol state
   machine (DESIGN.md section 9).

   Each alive node is a latent actor.  When a message lands in its
   mailbox and the actor is idle, the delivery starts its drain at
   once.  The drain pops messages FIFO into the node's in-service slot,
   models [service] virtual seconds of local processing per message
   with a service-done event, then executes the hop (pointer probe,
   deposit, removal, or replica check) and sends the follow-up message
   — so a request's hop sequence is real inter-actor traffic: [hop]
   delivers it [latency * distance] virtual seconds later, the metric
   distance of the link.
   A drain is two plain functions, [drain_head] and [serve_done], with
   no continuation or closure per message.

   Opcodes: 0 LOCATE walks toward the object's root until a usable
   pointer redirects it (FETCH to the closest live server, Section 2.4's
   closest-replica rule); 1 FETCH completes at the server iff it still
   stores the replica; 2 PUBLISH deposits a pointer per hop with the
   previous-hop backlink (Figure 2 / Figure 9's "previous"), completing
   at the root; 3 UNPUBLISH retracts along the same walk; 4 LOCATE_NC is
   the cache-free locate a request's last redirects climb with.  Pointer
   records name the server and the previous hop by the arena handles a
   message carries as [src] and [prev], so no hop looks up an ID.

   Request slots.  A request's mutable state (injection stamps, the
   recorded locate path) lives in a slot of its injecting shard's pool
   from injection until the barrier after it settles; messages carry
   the slot's tag in their [req] field (-1: a fire-and-forget chain).
   Only one message of a request is ever live, so its slot is written
   by one shard at a time; completion or failure bumps one of the
   settling shard's counters and links the slot, through its free-list
   cell, onto that shard's list for the owner, which the barrier
   splices onto the owner's free list.  So request memory follows the
   requests in flight, not the length of the run.

   Object caching (DESIGN.md section 10).  Every LOCATE hop
   probes its own node's cache line before the pointer store (with zero
   ways every probe misses) and, when the cache has ways, records itself
   in the request's slot path; a valid entry (matching object epoch,
   alive server) redirects a FETCH immediately.  A successful FETCH logs
   fill intents for every recorded path node — applied at the next
   barrier in shard order, so cross-node cache state stays bit-identical
   for any [--domains].  Fills are ONLY sourced from successful fetches:
   the server is authoritative for its own replica set, so an
   epoch-current cache entry can name a replica-less server only within
   the window of the racing unpublish (whose epoch bump lands at that
   same barrier), never at a quiescent audit point.

   Redirect budget (DESIGN.md section 10.3).  A FETCH that finds the
   replica gone (a soft-state pointer or cache entry outlived it; a
   lying cache entry is retracted by an evict intent) resumes the climb
   from the server, at every cache size; a cache-hit FETCH that
   overflows its server's mailbox while the entry's holder is alive
   resumes it from the holder.  Each recovery spends one unit of the
   request's redirect count [rc]: stale re-climbs with [rc < rc_max]
   still probe caches, overflow re-climbs and those with [rc >= rc_max]
   are cache-free LOCATE_NC walks, and a request that would reach
   [rc > rc_max + 1] fails as [Exhausted].  LOCATE and LOCATE_NC
   pack [rc] into the level field's high bits; FETCH carries it as its
   level.

   Shard confinement: a dispatch only mutates state owned by the shard
   it runs on (the target node's pointer store / replica set — nodes are
   partitioned by handle), reads the frozen routing mesh, and writes its
   own shard's counters, histograms, event heap and outbox.  Every hop
   is one [Route.step], the sync walks' own routing step.  Dead
   neighbors it meets are not purged mid-window (that would mutate
   shared tables and the global cost accumulator the way the sync
   tier's purge hook does): the actor's hook logs the owner in the
   shard's [repairs] and leaves the slot alone, and the shard barrier runs
   [Delete.on_dead_repair] sequentially.

   This file is on the typed lint's hot-path list: the per-message path
   allocates nothing (pointer records are column cells, a step's answer
   is an immediate int, and the best-server scan reports through
   mutable ctx fields). *)

open Tapestry
module Events = Mailbox.Events
module Rows = Mailbox.Rows
module Cost = Simnet.Cost
module Hist = Simnet.Stats.Hist

let op_locate = 0
let op_fetch = 1
let op_publish = 2
let op_unpublish = 3
let op_locate_nc = 4

(* LOCATE level packing: low bits walk level, high bits redirect count.
   FETCH reuses the level field for the redirect count alone. *)
let rc_shift = 8
let level_mask = (1 lsl rc_shift) - 1
let rc_max = 2

(* Recorded locate hops per request slot (fill-intent targets), so it
   sizes each in-flight slot, not every request of the run.  Walks are
   O(log n) = [id_digits]; the slack covers recovery re-climbs.  Never
   binds on the perfbench shapes, seed 3: 0 of 233 000 (hot) and 90 000
   (cold-churn) requests reach it (EXPERIMENTS.md "Knob census"). *)
let path_cap = 12

(* Why a request failed; each cause has its counter in the ctx. *)
type cause =
  | Dropped  (* its message overflowed a full mailbox *)
  | Dead_letter  (* its message's target died *)
  | Exhausted  (* FETCH site: redirect budget spent *)
  | Root_miss  (* the climb reached the root without a usable pointer *)

(* engine event kinds, negative so they never collide with an opcode *)
let ev_service = -1
let ev_inject = -2

(* Request slots come in segments of [slot_seg]; a pool grows by
   appending one, so a slot's arrays never move while another shard
   writes them. *)
let slot_bits = 6
let slot_seg = 1 lsl slot_bits
let slot_mask = slot_seg - 1

type slot_seg = {
  s_t0 : float array;  (* virtual injection time *)
  s_w0 : float array;  (* wall stamp of the injection window *)
  s_next : int array;
      (* next free slot while the slot is free; once settled, the next
         slot on the settling shard's [settled] list for the owner *)
  s_plen : Bytes.t;  (* locate hops recorded (saturates at path_cap) *)
  s_path : Bytes.t;
      (* [path_cap] recorded hops per slot, each a 32-bit handle
         (handles < 2^31) at byte [4 * (cell * path_cap + k)].  Empty
         for a zero-way cache. *)
}

type slots = {
  mutable segs : slot_seg array;
  mutable free : int;  (* first free slot, -1 when none *)
  mutable used : int;  (* slots ever handed out: the pool's high-water mark *)
}

type shared = {
  net : Network.t;
  mbs : Mailbox.t array;
      (* per shard: the message store of its handles, whose pool also
         backs the shard's event heap *)
  shards : int;  (* fixed partition count, independent of --domains *)
  guids : Node_id.t array;  (* oi = obj * roots + r -> salted guid psi_r *)
  roots : int;  (* config root_set_size *)
  ttl : float;  (* pointer expiry horizon for serve-time deposits *)
  latency : float;  (* virtual seconds per unit of metric distance *)
  service : float;  (* virtual seconds an actor spends per message *)
  base : int;
  tag_bits : int;  (* a slot tag is [slot lsl tag_bits lor owner shard] *)
  slots : slots array;
      (* per shard: the slots of the requests it injected.  The owner
         opens a slot and reclaims it at a barrier; mid-window the one
         live message of a request writes its slot from whichever
         shard serves it (cross-shard hand-offs wait for a barrier),
         so slot writes are race-free. *)
  wall : float array;  (* wall.(0): stamp of the current window, barrier-written *)
  mutable dirty : Bytes.t;  (* per handle: 1 if queued for dead-entry repair *)
  cache : Obj_cache.t;
      (* per-node object caches, possibly zero-way; probes/touches are
         own-line (shard-confined), cross-node fills/evicts/epoch bumps
         ride the ctx intent logs to the barrier *)
  (* ---- cooperative hint exchange (DESIGN.md section 11); the fields
     below are inert when [coop = false] ---- *)
  coop : bool;
  mutable want_stamp : int array;
      (* per handle: window index of the node's last logged want; a
         node's dispatches run on its owner shard, so writes are
         disjoint by construction.  Empty when coop is off. *)
  win : int array;  (* win.(0): window counter, barrier-written *)
}

type ctx = {
  sh : shared;
  shard : int;
  q : Events.q;  (* messages, service and injector events; the clock *)
  out : Mailbox.Outbox.ob;
  rng : Simnet.Rng.t;  (* injector stream; dispatch never draws from it *)
  hist_v : Hist.h;  (* virtual-time latency of completed requests *)
  hist_w : Hist.h;  (* wall-time latency (info only, machine-dependent) *)
  mutable injected : int;
  mutable completed : int;
  mutable failed : int;
  mutable dropped : int;  (* requests lost to a full mailbox *)
  dropped_by : int array;  (* ... by the class of the dropped message *)
  mutable dead_letter : int;  (* requests lost to a dead target *)
  mutable chain_lost : int;  (* fire-and-forget chain messages lost either way *)
  mutable exhausted : int;  (* failed at the FETCH site, budget spent *)
  mutable root_miss : int;  (* failed at the root without a usable pointer *)
  mutable delivered : int;
  mutable inject : ctx -> unit;  (* injector step; set once by the driver *)
  mutable inj_k : int;  (* requests the injector issued; -1 before its start *)
  settled : int array;
      (* per owner shard: the newest slot this shard settled since the
         last barrier, the head of a list linked through [s_next]
         (-1: none) *)
  settled_tail : int array;  (* per owner shard: that list's oldest slot *)
  settled_owners : Rows.t;  (* the owners whose list is not empty *)
  repairs : Rows.t;  (* owners with dead table entries, barrier-drained *)
  mutable dead : Node.t -> int -> bool;
      (* [Route.step]'s dead-entry hook: queue the owner for barrier
         repair, slot unchanged; assigned once in [make_ctx] *)
  mutable best_h : int;
  sel_f : float array;
      (* [| best distance |] for [sel]: a float-array cell, so writing
         it allocates nothing (a mutable float field of this mixed
         record would box every write) *)
  mutable cur : Node.t;  (* node whose dispatch is running *)
  mutable sel : Pointer_store.cols -> int -> unit;
      (* preallocated best-server folder; assigned once in [make_ctx] *)
  tally : Simnet.Stats.Tally.t;  (* cache hit/miss/stale/... counters *)
  (* barrier-applied cache intents *)
  fills : Rows.t;
      (* (target line, key, server, epoch snapshot at intent-log time) *)
  evicts : Rows.t;
      (* (holder line, key, server): retract only if still naming it *)
  bumps : Rows.t;  (* (key, retracting server): unpublish origins *)
  digest : Rows.t;
      (* cooperative hint digest: this window's cache hits as distinct
         (key, srv, epoch) rows in first-hit order, at most
         [digest_cap]; the barrier buckets them by root-guid digits *)
  wants : Rows.t;
      (* want ring: nodes of this shard that missed this window (one
         entry per node per window via [want_stamp]) — the only nodes
         the barrier offers bucket rows to *)
}

(* Distinct (key, server) pairs a shard's digest tracks per window;
   past it, later pairs are not logged.  Never binds on the perfbench
   shapes, seed 3: 0 of 16 128 (hot) and 6 464 (cold-churn) shard-
   windows fill it (EXPERIMENTS.md "Knob census"). *)
let digest_cap = 64

(* [@alloc_ok]: one shared record per run. *)
let[@alloc_ok] make_shared ~net ~mbs ~shards ~guids ~roots ~ttl ~latency
    ~service ~cache ~coop =
  let cfg = net.Network.config in
  let ways = cache.Obj_cache.ways in
  let coop = coop && ways > 0 in
  {
    net;
    mbs;
    shards;
    guids;
    roots;
    ttl;
    latency;
    service;
    base = cfg.Config.base;
    tag_bits =
      (let rec bits b = if 1 lsl b >= shards then b else bits (b + 1) in
       bits 0);
    slots = Array.init shards (fun _ -> { segs = [||]; free = -1; used = 0 });
    wall = Array.make 1 0.;
    dirty = Bytes.make (max net.Network.arena_len 1) '\000';
    cache;
    coop;
    want_stamp =
      (if coop then Array.make (max net.Network.arena_len 1) (-1) else [||]);
    win = Array.make 1 0;
  }

(* [ctx.sel_f] cells *)
let sel_best_d = 0

(* [@alloc_ok]: footprint accounting, once per report.  The request
   slot pools and the per-handle repair and want marks. *)
let[@alloc_ok] request_bytes sh =
  let word = 8 in
  let arr a = (Array.length a + 1) * word
  and bytes b = (((Bytes.length b + word) / word) + 1) * word in
  let seg g =
    arr g.s_t0 + arr g.s_w0 + arr g.s_next + bytes g.s_plen + bytes g.s_path
    + (7 * word)
  in
  Array.fold_left
    (fun acc p ->
      Array.fold_left (fun a g -> a + seg g) (acc + (4 * word) + arr p.segs) p.segs)
    0 sh.slots
  + bytes sh.dirty + arr sh.want_stamp

let note_dirty ctx (owner : Node.t) =
  let h = owner.Node.handle in
  if h >= 0 && Bytes.get ctx.sh.dirty h = '\000' then begin
    Bytes.set ctx.sh.dirty h '\001';
    Rows.push1 ctx.repairs h
  end

(* [@alloc_ok]: one ctx record (plus its selector and dead-entry
   closures) per shard per run; the closures read and write only ctx
   fields, so dispatches reuse them without allocating. *)
let[@alloc_ok] make_ctx sh ~shard ~rng =
  let ctx =
    {
      sh;
      shard;
      q = Events.create sh.mbs.(shard);
      out = Mailbox.Outbox.create ();
      rng;
      hist_v = Hist.create ();
      hist_w = Hist.create ();
      injected = 0;
      completed = 0;
      failed = 0;
      dropped = 0;
      dropped_by = Array.make (op_locate_nc + 1) 0;
      dead_letter = 0;
      chain_lost = 0;
      exhausted = 0;
      root_miss = 0;
      delivered = 0;
      inject = (fun _ -> ());
      inj_k = -1;
      settled = Array.make sh.shards (-1);
      settled_tail = Array.make sh.shards (-1);
      settled_owners = Rows.create ~width:1;
      repairs = Rows.create ~width:1;
      dead = (fun _ _ -> false);
      best_h = -1;
      sel_f = [| infinity |];
      cur = Network.node_of_handle sh.net 0;
      sel = (fun _ _ -> ());
      tally = Simnet.Stats.Tally.create ();
      fills = Rows.create ~width:4;
      evicts = Rows.create ~width:3;
      bumps = Rows.create ~width:2;
      digest = Rows.create ~width:3;
      wants = Rows.create ~width:1;
    }
  in
  (ctx.sel <-
     (fun (c : Pointer_store.cols) i ->
       if c.expires.(i) >= ctx.q.Events.clock.(0) then begin
         let srv = Network.node_of_handle sh.net (Pointer_store.server c i) in
         if Node.is_alive srv then begin
           let d = Network.dist sh.net ctx.cur srv in
           if d < ctx.sel_f.(sel_best_d) then begin
             ctx.sel_f.(sel_best_d) <- d;
             ctx.best_h <- srv.Node.handle
           end
         end
       end));
  (ctx.dead <-
     (fun owner _ ->
       note_dirty ctx owner;
       false));
  ctx

(* Send: same-shard targets go straight into this shard's event heap;
   cross-shard targets are buffered in the outbox until the barrier.  A
   target killed at a later barrier makes the message a dead letter on
   delivery. *)
let[@inline] send ctx ~time ~h ~kind ~req ~oi ~level ~prev ~src =
  if h mod ctx.sh.shards = ctx.shard then
    Events.push ctx.q ~time ~h ~kind ~req ~oi ~level ~prev ~src
  else Mailbox.Outbox.push ctx.out ~time ~h ~kind ~req ~oi ~level ~prev ~src

(* Is the node at handle [h] alive?  Churn never revives a node or
   reuses its handle, so a node dead now was killed at a barrier after
   its message was sent, queued or taken into service. *)
let[@inline] alive sh h = Node.is_alive (Network.node_of_handle sh.net h)

(* One hop of distance [d] from [node] to handle [h]: schedule delivery
   after the virtual link latency.  [Network.dist] inlines here, so [d]
   stays unboxed. *)
let hop ctx (node : Node.t) ~h ~kind ~req ~oi ~level ~prev ~src =
  let sh = ctx.sh in
  let d = Network.dist sh.net node (Network.node_of_handle sh.net h) in
  send ctx ~time:(ctx.q.Events.clock.(0) +. (sh.latency *. d)) ~h ~kind ~req ~oi
    ~level ~prev ~src

(* ---- request slots ---- *)

(* A slot tag names the owner shard (low [tag_bits]) and the slot in
   its pool: the slot's segment and its cell there. *)
let[@inline] tag_seg sh tag =
  let owner = tag land ((1 lsl sh.tag_bits) - 1) in
  sh.slots.(owner).segs.(tag lsr (sh.tag_bits + slot_bits))

let[@inline] tag_cell sh tag = (tag lsr sh.tag_bits) land slot_mask

(* LOCATE hops are recorded for the fill unwind, and unpublish origins
   bump epochs, only with ways to fill. *)
let has_ways sh = sh.cache.Obj_cache.ways > 0

(* [@alloc_ok]: appends one segment, [slot_seg] more slots per shard
   when its requests in flight outgrow the pool; the old segments stay
   put. *)
let[@alloc_ok] grow_slots sh p =
  let g =
    {
      s_t0 = Array.make slot_seg 0.;
      s_w0 = Array.make slot_seg 0.;
      s_next = Array.make slot_seg (-1);
      s_plen = Bytes.make slot_seg '\000';
      s_path =
        (if has_ways sh then Bytes.make (4 * slot_seg * path_cap) '\000'
         else Bytes.empty);
    }
  in
  p.segs <- Array.append p.segs [| g |]

let open_req ctx =
  let sh = ctx.sh in
  let p = sh.slots.(ctx.shard) in
  let slot =
    if p.free >= 0 then begin
      let s = p.free in
      p.free <- p.segs.(s lsr slot_bits).s_next.(s land slot_mask);
      s
    end
    else begin
      if p.used >= Array.length p.segs * slot_seg then grow_slots sh p;
      let s = p.used in
      p.used <- s + 1;
      s
    end
  in
  let g = p.segs.(slot lsr slot_bits) and i = slot land slot_mask in
  g.s_t0.(i) <- ctx.q.Events.clock.(0);
  g.s_w0.(i) <- sh.wall.(0);
  Bytes.set g.s_plen i '\000';
  (slot lsl sh.tag_bits) lor ctx.shard

(* Hops recorded in cell [i] of segment [g], and its [k]-th. *)
let seg_plen g i = Char.code (Bytes.get g.s_plen i)

let seg_hop g i k =
  Int32.to_int (Bytes.get_int32_ne g.s_path (4 * ((i * path_cap) + k)))

let path_len sh tag = seg_plen (tag_seg sh tag) (tag_cell sh tag)

let path_hop sh tag k = seg_hop (tag_seg sh tag) (tag_cell sh tag) k

(* Record the request's next locate hop, if its path has room. *)
let[@inline] record_hop sh tag h =
  let g = tag_seg sh tag and i = tag_cell sh tag in
  let plen = seg_plen g i in
  if plen < path_cap then begin
    Bytes.set_int32_ne g.s_path (4 * ((i * path_cap) + plen)) (Int32.of_int h);
    Bytes.set g.s_plen i (Char.chr (plen + 1))
  end

(* Link a settled request's slot (tag [req], cell [i] of segment [g])
   onto this shard's settled list for the owner.  The one live message
   of the request is served here, so no other shard writes the slot
   meanwhile, and each list has one writer. *)
let settle ctx ~req g i =
  let sh = ctx.sh in
  let owner = req land ((1 lsl sh.tag_bits) - 1) and slot = req lsr sh.tag_bits in
  if ctx.settled.(owner) < 0 then begin
    ctx.settled_tail.(owner) <- slot;
    Rows.push1 ctx.settled_owners owner
  end;
  g.s_next.(i) <- ctx.settled.(owner);
  ctx.settled.(owner) <- slot

(* Barrier step: splice each list of slots this shard settled onto its
   owner's free list, one write per list, whatever the lists hold. *)
let reclaim ctx =
  let sh = ctx.sh in
  for k = 0 to Rows.length ctx.settled_owners - 1 do
    let owner = Rows.get ctx.settled_owners k 0 in
    let p = sh.slots.(owner) and tail = ctx.settled_tail.(owner) in
    p.segs.(tail lsr slot_bits).s_next.(tail land slot_mask) <- p.free;
    p.free <- ctx.settled.(owner);
    ctx.settled.(owner) <- -1
  done;
  Rows.clear ctx.settled_owners

let complete_ok ctx ~req =
  if req >= 0 then begin
    let sh = ctx.sh in
    let g = tag_seg sh req and i = tag_cell sh req in
    Hist.add ctx.hist_v (ctx.q.Events.clock.(0) -. g.s_t0.(i));
    Hist.add ctx.hist_w (sh.wall.(0) -. g.s_w0.(i));
    settle ctx ~req g i;
    ctx.completed <- ctx.completed + 1
  end

(* A request-carrying message ([req >= 0]) fails its request; a chain
   message ([req < 0]) fails none and counts no cause. *)
let fail_req ctx ~req cause =
  if req >= 0 then begin
    settle ctx ~req (tag_seg ctx.sh req) (tag_cell ctx.sh req);
    ctx.failed <- ctx.failed + 1;
    match cause with
    | Dropped -> ctx.dropped <- ctx.dropped + 1
    | Dead_letter -> ctx.dead_letter <- ctx.dead_letter + 1
    | Exhausted -> ctx.exhausted <- ctx.exhausted + 1
    | Root_miss -> ctx.root_miss <- ctx.root_miss + 1
  end

(* A message whose target died.  Only request-carrying losses are
   failure causes; a lost chain message fails no request. *)
let[@inline] count_dead_letter ctx ~req =
  if req >= 0 then fail_req ctx ~req Dead_letter
  else ctx.chain_lost <- ctx.chain_lost + 1

(* Digest a cache hit: append the (key, srv) pair unless this window
   already logged it or the digest is full.  Linear scan over at most
   [digest_cap] rows, shard-confined. *)
let log_digest ctx ~key ~srv ~epoch =
  let d = ctx.digest in
  if Rows.length d < digest_cap && not (Rows.mem2 d key srv) then
    Rows.push3 d key srv epoch

(* A cache miss marks the node as wanting hints — once per window per
   node ([want_stamp] dedup), so the want ring is bounded by the
   shard's active node set. *)
let log_want ctx (node : Node.t) =
  let sh = ctx.sh in
  let h = node.Node.handle in
  let w = sh.win.(0) in
  if sh.want_stamp.(h) <> w then begin
    sh.want_stamp.(h) <- w;
    Rows.push1 ctx.wants h
  end

(* The next hop of [node]'s walk toward [oi]'s root, resolved [level]
   digits so far: one [Route.step] (-1 at the root). *)
let[@inline] step ctx (node : Node.t) ~oi ~level =
  Route.step ctx.sh.net ~skip:Route.no_skip ~dead:ctx.dead node
    ctx.sh.guids.(oi) ~level

(* Pointer probe + surrogate climb, shared by LOCATE (after a cache miss)
   and LOCATE_NC.  [wl] is the walk level, [rc] the request's redirect
   count, re-packed into the outgoing level. *)
let locate_climb ctx (node : Node.t) ~req ~oi ~wl ~rc ~src ~base_guid ~nc =
  (* a usable pointer redirects the walk to the closest live server *)
  ctx.cur <- node;
  ctx.best_h <- -1;
  ctx.sel_f.(sel_best_d) <- infinity;
  Pointer_store.iter_guid node.Node.pointers base_guid ~f:ctx.sel;
  if ctx.best_h >= 0 then
    hop ctx node ~h:ctx.best_h ~kind:op_fetch ~req ~oi ~level:rc
      ~prev:(-1) ~src:ctx.best_h
  else begin
    let r = step ctx node ~oi ~level:wl in
    if r >= 0 then
      hop ctx node ~h:(Route.step_handle r)
        ~kind:(if nc then op_locate_nc else op_locate)
        ~req ~oi
        ~level:(Route.step_level r lor (rc lsl rc_shift))
        ~prev:(-1) ~src
    else
      (* reached the root without intersecting a publish path *)
      fail_req ctx ~req Root_miss
  end

(* The tail of a PUBLISH or UNPUBLISH hop, after its store write:
   forward the message with this node as the previous hop, or complete
   at the root. *)
let walk_on ctx (node : Node.t) ~kind ~req ~oi ~level ~src =
  let r = step ctx node ~oi ~level in
  if r >= 0 then
    hop ctx node ~h:(Route.step_handle r) ~kind ~req ~oi
      ~level:(Route.step_level r) ~prev:node.Node.handle ~src
  else complete_ok ctx ~req

let rec dispatch ctx (node : Node.t) ~kind ~req ~oi ~level ~prev ~src =
  let sh = ctx.sh in
  let base_oi = oi - (oi mod sh.roots) in
  let base_guid = sh.guids.(base_oi) in
  if kind = op_locate then begin
    let wl = level land level_mask in
    let rc = level lsr rc_shift in
    let c = sh.cache in
    (* record this hop for the fill unwind *)
    if req >= 0 && has_ways sh then record_hop sh req node.Node.handle;
    let key = base_oi / sh.roots in
    let i = Obj_cache.probe c ~h:node.Node.handle ~key in
    let srv = if i >= 0 then Obj_cache.probe_srv c i else -1 in
    if i >= 0 && alive sh srv then begin
      (* epoch and liveness current: redirect.  [prev] carries this
         holder so a lying entry can be retracted by the fetch. *)
      ctx.tally.hits <- ctx.tally.hits + 1;
      if sh.coop then begin
        if Obj_cache.probe_is_hint c i then
          ctx.tally.hint_hits <- ctx.tally.hint_hits + 1;
        log_digest ctx ~key ~srv ~epoch:(Obj_cache.probe_epoch c i)
      end;
      hop ctx node ~h:srv ~kind:op_fetch ~req ~oi ~level:rc
        ~prev:node.Node.handle ~src:srv
    end
    else begin
      if i = -1 then ctx.tally.misses <- ctx.tally.misses + 1
      else begin
        (* an epoch-stale entry the probe self-evicted (-2), or a
           dead server (churn never revives a node or reuses its
           handle): own-line evict *)
        if i >= 0 then Obj_cache.evict_at c i;
        ctx.tally.stale <- ctx.tally.stale + 1;
        ctx.tally.evicts <- ctx.tally.evicts + 1
      end;
      if sh.coop then log_want ctx node;
      locate_climb ctx node ~req ~oi ~wl ~rc ~src ~base_guid ~nc:false
    end
  end
  else if kind = op_fetch then begin
    if Node.stores_replica node base_guid then begin
      complete_ok ctx ~req;
      (* unwind: offer this server to every recorded hop of the path.
         The epoch snapshot is taken NOW — a racing unpublish's bump is
         applied before fills at the barrier, so such a fill lands
         already-stale instead of masking the retraction. *)
      if req >= 0 && has_ways sh then begin
        let c = sh.cache in
        let key = base_oi / sh.roots in
        let self = node.Node.handle in
        let ep = Obj_cache.epoch_of c ~key ~srv:self in
        let g = tag_seg sh req and i = tag_cell sh req in
        for k = 0 to seg_plen g i - 1 do
          let tgt = seg_hop g i k in
          if tgt <> self then begin
            Rows.push4 ctx.fills tgt key self ep;
            ctx.tally.fills <- ctx.tally.fills + 1
          end
        done
      end
    end
    else begin
      (* the replica left between redirect and arrival (cached shortcut
         gone stale, or a pointer racing its unpublish retraction):
         spend one redirect and resume the search from this server *)
      let rc = level + 1 in
      if rc <= rc_max + 1 then begin
        if prev >= 0 then begin
          (* retract the lying entry at its holder *)
          Rows.push3 ctx.evicts prev (base_oi / sh.roots) node.Node.handle;
          ctx.tally.stale <- ctx.tally.stale + 1;
          ctx.tally.evicts <- ctx.tally.evicts + 1
        end;
        ctx.tally.recoveries <- ctx.tally.recoveries + 1;
        dispatch ctx node
          ~kind:(if rc >= rc_max then op_locate_nc else op_locate)
          ~req ~oi ~level:(rc lsl rc_shift) ~prev:(-1) ~src
      end
      else fail_req ctx ~req Exhausted
    end
  end
  else if kind = op_publish then begin
    if prev < 0 then Node.add_replica node base_guid;
    ignore
      (Pointer_store.store node.Node.pointers ~guid:base_guid ~server:src
         ~root_idx:(oi - base_oi) ~previous:prev
         ~expires:(ctx.q.Events.clock.(0) +. sh.ttl));
    walk_on ctx node ~kind ~req ~oi ~level ~src
  end
  else if kind = op_unpublish then begin
    if prev < 0 then begin
      Node.remove_replica node base_guid;
      (* origin of the retraction: invalidate cached shortcuts naming
         this (object, server) pair — the origin node IS the server
         (logged on the base oi only; root walks oi > base_oi share the
         same key).  A zero-way cache holds no shortcut to invalidate. *)
      if oi = base_oi && has_ways sh then
        Rows.push2 ctx.bumps (base_oi / sh.roots) node.Node.handle
    end;
    ignore
      (Pointer_store.remove node.Node.pointers ~guid:base_guid ~server:src
         ~root_idx:(oi - base_oi));
    walk_on ctx node ~kind ~req ~oi ~level ~src
  end
  else
    (* op_locate_nc: the cache-free climb; its FETCH carries the
       redirect count on, so the budget stays bounded *)
    locate_climb ctx node ~req ~oi ~wl:(level land level_mask)
      ~rc:(level lsr rc_shift) ~src ~base_guid ~nc:true

(* The drain: FIFO over the mailbox, [service] virtual seconds per
   message, until the queue is empty.  [drain_head] hands the head's
   pool slot to the in-service index and schedules its service-done
   event, or marks the actor idle when the queue is empty; [serve_done]
   checks liveness — the node may have been killed at a barrier during
   service, and the message in hand dies with it — then dispatches,
   releases the slot and loops.  That check is the drain's only one: a
   drain starts inside a delivery, which has just checked liveness, and
   a node killed during service has an empty queue (the kill swept it),
   so its loop only goes idle.  With [service = 0] no event is
   scheduled and the whole drain runs inside the delivery.  A node's
   messages all live in its owner shard's store, the one behind
   [ctx.q]. *)
let rec drain_head ctx h =
  if Mailbox.take ctx.q.Events.mb h then begin
    let service = ctx.sh.service in
    if service > 0. then
      Events.schedule ctx.q ~time:(ctx.q.Events.clock.(0) +. service)
        ~kind:ev_service ~h
    else serve_done ctx h
  end

and serve_done ctx h =
  let node = Network.node_of_handle ctx.sh.net h in
  let mb = ctx.q.Events.mb in
  let slot = Mailbox.in_service mb h in
  let req = mb.Mailbox.r_req.(slot) in
  if Node.is_alive node then
    dispatch ctx node ~kind:mb.Mailbox.r_kind.(slot) ~req
      ~oi:mb.Mailbox.r_oi.(slot) ~level:mb.Mailbox.r_level.(slot)
      ~prev:mb.Mailbox.r_prev.(slot) ~src:mb.Mailbox.r_src.(slot)
  else
    (* killed mid-service: the in-hand message is a dead letter *)
    count_dead_letter ctx ~req;
  Mailbox.release mb slot;
  drain_head ctx h

(* Deliver the message just popped (the clock is at its arrival time;
   its pool slot is [q.o_slot]): dead letters and mailbox overflow are
   terminal for the request and release the slot; otherwise the slot
   joins the node's FIFO and, if the actor is idle, its drain starts
   now.  Starting it here rather than from an event of its own changes
   no order: the message popped after every engine event at its time,
   so such an event would have been the heap's minimum and run next. *)
let deliver ctx =
  let sh = ctx.sh in
  let q = ctx.q in
  let mb = q.Events.mb in
  let h = q.Events.o_h in
  let slot = q.Events.o_slot in
  let req = mb.Mailbox.r_req.(slot) in
  ctx.delivered <- ctx.delivered + 1;
  if not (alive sh h) then begin
    Mailbox.release mb slot;
    count_dead_letter ctx ~req
  end
  else if not (Mailbox.enqueue mb h slot) then begin
    let kind = q.Events.o_kind in
    let prev = mb.Mailbox.r_prev.(slot) in
    let oi = mb.Mailbox.r_oi.(slot) in
    let src = mb.Mailbox.r_src.(slot) in
    let rc = mb.Mailbox.r_level.(slot) + 1 in
    Mailbox.release mb slot;
    if
      kind = op_fetch && req >= 0 && rc <= rc_max + 1
      && prev >= 0 && prev <> h
      && alive sh prev
    then begin
      (* overflow relief: a cache-hit FETCH ([prev] is the entry's
         holder) is issued at injection time, so a same-window burst
         lands on a hot server as one batch and overflows its mailbox.
         Instead of failing, spend one redirect and resume the climb
         from the holder, which spreads the retry over later windows.
         The climb is cache-free at any [rc]: a cached one would re-hit
         the holder's entry and resend the FETCH to the same server. *)
      ctx.tally.recoveries <- ctx.tally.recoveries + 1;
      send ctx ~time:q.Events.clock.(0) ~h:prev ~kind:op_locate_nc ~req ~oi
        ~level:(rc lsl rc_shift) ~prev:(-1) ~src
    end
    else if req >= 0 then begin
      (* bounded mailbox full: drop the newcomer (backpressure policy) *)
      ctx.dropped_by.(kind) <- ctx.dropped_by.(kind) + 1;
      fail_req ctx ~req Dropped
    end
    else ctx.chain_lost <- ctx.chain_lost + 1
  end
  else if not (Mailbox.is_busy mb h) then drain_head ctx h

(* The shard's event loop: run every event at or before [limit],
   including events pushed meanwhile, in heap order, then lift the
   clock to [limit]. *)
let rec run_until ctx limit =
  let q = ctx.q in
  if Events.peek_time q <= limit then begin
    ignore (Events.pop_into q : bool);
    let kind = q.Events.o_kind in
    if kind >= 0 then deliver ctx
    else if kind = ev_service then serve_done ctx q.Events.o_h
    else ctx.inject ctx;
    run_until ctx limit
  end
  else Events.lift q limit
