(* Per-node actors: mailbox drains and the per-message protocol state
   machine (DESIGN.md section 9).

   Each alive node is a latent actor.  When a message lands in its
   mailbox and the actor is idle, a drain-start event goes on the
   owning shard's timer heap.  The drain pops messages FIFO into the
   node's in-service slot, models [service] virtual seconds of local
   processing per message with a service-done event, then executes the
   hop (pointer probe, deposit, removal, or replica check) and sends the
   follow-up message — so a request's hop sequence is real inter-actor
   traffic, each hop charged [latency * metric distance] like
   [Async_ops.hop].  A drain is two plain functions, [drain_head] and
   [serve_done], with no continuation or closure per message.

   Opcodes: 0 LOCATE walks toward the object's root until a usable
   pointer redirects it (FETCH to the closest live server, Section 2.4's
   closest-replica rule); 1 FETCH completes at the server iff it still
   stores the replica; 2 PUBLISH deposits a pointer per hop with the
   previous-hop backlink (Figure 2 / Figure 9's "previous"), completing
   at the root; 3 UNPUBLISH retracts along the same walk; 4 LOCATE_NC is
   the cache-free locate a request's last redirects climb with.

   Object caching (PR 9, DESIGN.md section 10).  With [cache = Some _],
   every LOCATE hop records itself in the request's path slice and
   probes its own node's cache line before the pointer store; a valid
   entry (matching object epoch, matching server mailbox generation,
   alive server) redirects a FETCH immediately.  A successful FETCH logs
   fill intents for every recorded path node — applied at the next
   barrier in shard order, so cross-node cache state stays bit-identical
   for any [--domains].  Fills are ONLY sourced from successful fetches:
   the server is authoritative for its own replica set, so an
   epoch-current cache entry can name a replica-less server only within
   the window of the racing unpublish (whose epoch bump lands at that
   same barrier), never at a quiescent audit point.

   Redirect budget.  A request recovers instead of failing in two
   cases: a FETCH arrives after the replica left (the lying cache entry,
   if any, is retracted by an evict intent and the climb resumes from
   the server), or a cache-hit FETCH overflows its server's mailbox
   while the entry's holder is alive (the climb resumes from the
   holder).  Each recovery spends one unit of the request's redirect
   count [rc]: stale re-climbs with [rc < rc_max] still probe caches,
   overflow re-climbs and those with [rc >= rc_max] are cache-free
   LOCATE_NC walks, and a request that would reach [rc > rc_max + 1]
   fails.  LOCATE and LOCATE_NC pack [rc] into the level field's high
   bits and FETCH carries it as its level.  Recovery needs a cache, so
   at [--cache 0] [rc] stays 0 and every message is byte-identical to
   the uncached engine; there a FETCH that races an unpublish
   retraction fails (BENCH_serve.json's `failed` at kill_rate=0).

   Shard confinement: a dispatch only mutates state owned by the shard
   it runs on (the target node's pointer store / replica set — nodes are
   partitioned by handle), reads the frozen routing mesh, and writes its
   own shard's counters, histograms, transport and outbox.  Dead
   neighbors noticed during digit scans are not purged mid-window (that
   would mutate shared tables and the global cost accumulator the way
   [Route.purge] does); the owner is recorded in the dirty set and the
   shard barrier runs [Delete.on_dead_repair] sequentially.

   This file is on the typed lint's hot-path list: the per-message path
   allocates nothing but the option values the pointer-store API
   returns; scratch results travel through mutable ctx fields. *)

open Tapestry
module Timer = Mailbox.Timer
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

(* Recorded locate hops per request (fill-intent targets).  Walks are
   O(log n) = [digits]; the slack covers recovery re-climbs. *)
let path_cap = 12

(* request_status values (one byte per request) *)
let st_pending = '\000'
let st_ok = '\001'
let st_failed = '\002'
let st_dropped = '\003'
let st_dead_letter = '\004'

(* timer event kinds *)
let ev_drain = 0
let ev_service = 1
let ev_inject = 2

type shared = {
  net : Network.t;
  mb : Mailbox.t;
  shards : int;  (* fixed partition count, independent of --domains *)
  guids : Node_id.t array;  (* oi = obj * roots + r -> salted guid psi_r *)
  roots : int;  (* config root_set_size *)
  ttl : float;  (* pointer expiry horizon for serve-time deposits *)
  latency : float;  (* virtual seconds per unit of metric distance *)
  service : float;  (* virtual seconds an actor spends per message *)
  digits : int;
  base : int;
  req_t0 : float array;  (* per request: virtual injection time *)
  req_w0 : float array;  (* per request: wall stamp of injection window *)
  req_status : Bytes.t;
  wall : float array;  (* wall.(0): stamp of the current window, barrier-written *)
  mutable dirty : Bytes.t;  (* per handle: 1 if queued for dead-entry repair *)
  cache : Obj_cache.t option;
      (* per-node object caches; probes/touches are own-line (shard-
         confined), cross-node fills/evicts/epoch bumps ride the ctx
         intent buffers to the barrier *)
  req_path : int array;
      (* requests * path_cap recorded locate hops; a request's hops are
         causally ordered across shards (cross-shard delivery waits for
         the barrier), so these disjoint-slice writes are race-free.
         Empty at --cache 0. *)
  req_plen : Bytes.t;  (* per request: hops recorded (saturates at path_cap) *)
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
  tm : Timer.tm;  (* drain, service and injector events; the shard clock *)
  tr : Mailbox.Transport.tr;
  out : Mailbox.Outbox.ob;
  rng : Simnet.Rng.t;  (* injector stream; dispatch never draws from it *)
  cost : Cost.t;
  hist_v : Hist.h;  (* virtual-time latency of completed requests *)
  hist_w : Hist.h;  (* wall-time latency (info only, machine-dependent) *)
  mutable injected : int;
  mutable completed : int;
  mutable failed : int;
  mutable dropped : int;
  mutable dead_letter : int;
  mutable delivered : int;
  mutable inject : ctx -> unit;  (* injector step; set once by the driver *)
  mutable inj_k : int;  (* requests the injector issued; -1 before its start *)
  mutable dirty_h : int array;  (* owners with dead table entries, barrier-drained *)
  mutable dirty_len : int;
  (* allocation-free scan scratch *)
  mutable scan_h : int;
  mutable scan_level : int;
  mutable best_h : int;
  mutable best_d : float;
  mutable pred_now : float;
  mutable cur : Node.t;  (* node whose dispatch is running *)
  mutable sel : Pointer_store.record -> unit;
      (* preallocated best-server folder; assigned once in [make_ctx] *)
  tally : Simnet.Stats.Tally.t;  (* cache hit/miss/stale/... counters *)
  (* barrier-applied cache intent buffers (parallel arrays) *)
  mutable fi_h : int array;  (* fill: target cache line *)
  mutable fi_key : int array;
  mutable fi_srv : int array;
  mutable fi_gen : int array;
  mutable fi_epoch : int array;  (* epoch snapshot at intent-log time *)
  mutable fi_len : int;
  mutable ev_h : int array;  (* evict: holder line *)
  mutable ev_key : int array;
  mutable ev_srv : int array;  (* only retract if still naming this server *)
  mutable ev_len : int;
  mutable ep_key : int array;  (* epoch bumps (unpublish origins) *)
  mutable ep_srv : int array;  (* ... of this retracting server *)
  mutable ep_len : int;
  (* cooperative hint digest: this window's cache hits as distinct
     (key, srv, gen, epoch) rows in first-hit order, at most
     [digest_cap]; the barrier buckets them by root-guid digits *)
  mutable hd_key : int array;
  mutable hd_srv : int array;
  mutable hd_gen : int array;
  mutable hd_epoch : int array;
  mutable hd_len : int;
  (* want ring: nodes of this shard that missed this window (one entry
     per node per window via [want_stamp]) — the only nodes the barrier
     offers bucket rows to *)
  mutable wt_h : int array;
  mutable wt_len : int;
}

(* Distinct (key, server) pairs a shard's digest tracks per window.
   Windows are short (tens of requests per shard), so the cap is rarely
   reached; past it, later pairs are not logged. *)
let digest_cap = 64

(* [@alloc_ok]: one shared record per run. *)
let[@alloc_ok] make_shared ~net ~mb ~shards ~guids ~roots ~ttl ~latency
    ~service ~requests ~cache ~coop =
  let cfg = net.Network.config in
  let coop = coop && Option.is_some cache in
  {
    net;
    mb;
    shards;
    guids;
    roots;
    ttl;
    latency;
    service;
    digits = cfg.Config.id_digits;
    base = cfg.Config.base;
    req_t0 = Array.make (max requests 1) 0.;
    req_w0 = Array.make (max requests 1) 0.;
    req_status = Bytes.make (max requests 1) st_pending;
    wall = Array.make 1 0.;
    dirty = Bytes.make (max net.Network.arena_len 1) '\000';
    cache;
    req_path =
      (match cache with
      | Some _ -> Array.make (max requests 1 * path_cap) 0
      | None -> [||]);
    req_plen =
      Bytes.make (match cache with Some _ -> max requests 1 | None -> 1) '\000';
    coop;
    want_stamp =
      (if coop then Array.make (max net.Network.arena_len 1) (-1) else [||]);
    win = Array.make 1 0;
  }

(* [@alloc_ok]: one ctx record (plus its selector closure) per shard per
   run; the closure reads/writes only ctx scratch fields, so dispatches
   reuse it without allocating. *)
let[@alloc_ok] make_ctx sh ~shard ~rng =
  let ctx =
    {
      sh;
      shard;
      tm = Timer.create ();
      tr = Mailbox.Transport.create ();
      out = Mailbox.Outbox.create ();
      rng;
      cost = Cost.make ();
      hist_v = Hist.create ();
      hist_w = Hist.create ();
      injected = 0;
      completed = 0;
      failed = 0;
      dropped = 0;
      dead_letter = 0;
      delivered = 0;
      inject = (fun _ -> ());
      inj_k = -1;
      dirty_h = Array.make 16 0;
      dirty_len = 0;
      scan_h = -1;
      scan_level = 0;
      best_h = -1;
      best_d = infinity;
      pred_now = 0.;
      cur = Network.node_of_handle sh.net 0;
      sel = (fun _ -> ());
      tally = Simnet.Stats.Tally.create ();
      fi_h = [||];
      fi_key = [||];
      fi_srv = [||];
      fi_gen = [||];
      fi_epoch = [||];
      fi_len = 0;
      ev_h = [||];
      ev_key = [||];
      ev_srv = [||];
      ev_len = 0;
      ep_key = [||];
      ep_srv = [||];
      ep_len = 0;
      hd_key = [||];
      hd_srv = [||];
      hd_gen = [||];
      hd_epoch = [||];
      hd_len = 0;
      wt_h = [||];
      wt_len = 0;
    }
  in
  (ctx.sel <-
     (fun (r : Pointer_store.record) ->
       if r.Pointer_store.expires >= ctx.pred_now then begin
         match Network.find sh.net r.Pointer_store.server with
         | Some srv when Node.is_alive srv ->
             let d = Network.dist sh.net ctx.cur srv in
             if d < ctx.best_d then begin
               ctx.best_d <- d;
               ctx.best_h <- srv.Node.handle
             end
         | _ -> ()
       end));
  ctx

(* Count trailing zeros of a non-zero mask, de Bruijn multiply — same
   table as Route's digit scan (not exported there; 32 small ints). *)
let ntz_table =
  [|
    0; 1; 28; 2; 29; 14; 24; 3; 30; 22; 20; 15; 25; 17; 4; 8; 31; 27; 13; 23;
    21; 19; 16; 7; 26; 12; 18; 6; 11; 5; 10; 9;
  |]

let ntz x = ntz_table.((((x land -x) * 0x077CB531) land 0xFFFFFFFF) lsr 27)

(* [@alloc_ok]: the dirty list doubles rarely; everything else is int
   stores. *)
let[@alloc_ok] note_dirty ctx (owner : Node.t) =
  let h = owner.Node.handle in
  if h >= 0 && Bytes.get ctx.sh.dirty h = '\000' then begin
    Bytes.set ctx.sh.dirty h '\001';
    if ctx.dirty_len >= Array.length ctx.dirty_h then begin
      let a = Array.make (Array.length ctx.dirty_h * 2) 0 in
      Array.blit ctx.dirty_h 0 a 0 ctx.dirty_len;
      ctx.dirty_h <- a
    end;
    ctx.dirty_h.(ctx.dirty_len) <- h;
    ctx.dirty_len <- ctx.dirty_len + 1
  end

(* First alive entry of a slot, read-only: dead entries are skipped (and
   the owner queued for barrier repair) instead of purged in place. *)
let rec slot_first_alive ctx (node : Node.t) ~level ~digit ~len k =
  if k >= len then -1
  else begin
    let h = Routing_table.slot_handle node.Node.table ~level ~digit ~k in
    if Node.is_alive (Network.node_of_handle ctx.sh.net h) then h
    else begin
      note_dirty ctx node;
      slot_first_alive ctx node ~level ~digit ~len (k + 1)
    end
  end

(* Wrap-order digit scan over the filled mask — [Route.native_scan]'s
   order exactly, minus purging. *)
let rec scan_digit ctx (node : Node.t) ~level ~want tries =
  let base = ctx.sh.base in
  if tries >= base then -1
  else begin
    let m = Routing_table.filled_mask node.Node.table ~level in
    let start = want + tries in
    let start = if start >= base then start - base else start in
    let m = ((m lsr start) lor (m lsl (base - start))) land ((1 lsl base) - 1) in
    if m = 0 then -1
    else begin
      let tries = tries + ntz m in
      if tries >= base then -1
      else begin
        let j = want + tries in
        let j = if j >= base then j - base else j in
        let len = Routing_table.slot_len node.Node.table ~level ~digit:j in
        let h = slot_first_alive ctx node ~level ~digit:j ~len 0 in
        if h >= 0 then h else scan_digit ctx node ~level ~want (tries + 1)
      end
    end
  end

(* Next hop of the walk toward [guid] starting at [level]: sets
   [scan_h] to the next node's handle and [scan_level] to the level the
   walk resumes at there, or [scan_h = -1] when [node] is the walk's
   endpoint (its surrogate root). *)
let rec next_hop ctx (node : Node.t) guid level =
  if level >= ctx.sh.digits then ctx.scan_h <- -1
  else begin
    let want = Node_id.digit guid level in
    let h = scan_digit ctx node ~level ~want 0 in
    if h < 0 then ctx.scan_h <- -1
    else if h = node.Node.handle then next_hop ctx node guid (level + 1)
    else begin
      ctx.scan_h <- h;
      ctx.scan_level <- level + 1
    end
  end

(* Send: same-shard targets go straight into this shard's transport;
   cross-shard targets are buffered in the outbox until the barrier.
   The target's mailbox generation is captured now — churn at a later
   barrier turns the message into a dead letter. *)
let send ctx ~time ~h ~kind ~req ~oi ~level ~prev ~src =
  let sh = ctx.sh in
  let g = Mailbox.generation sh.mb h in
  if h mod sh.shards = ctx.shard then
    Mailbox.Transport.push ctx.tr ~time ~h ~g ~kind ~req ~oi ~level ~prev ~src
  else Mailbox.Outbox.push ctx.out ~time ~h ~g ~kind ~req ~oi ~level ~prev ~src

let complete_ok ctx ~now ~req =
  if req >= 0 then begin
    let sh = ctx.sh in
    Bytes.set sh.req_status req st_ok;
    Hist.add ctx.hist_v (now -. sh.req_t0.(req));
    Hist.add ctx.hist_w (sh.wall.(0) -. sh.req_w0.(req));
    ctx.completed <- ctx.completed + 1
  end

let complete_failed ctx ~req =
  if req >= 0 then begin
    Bytes.set ctx.sh.req_status req st_failed;
    ctx.failed <- ctx.failed + 1
  end

(* One hop of distance [d] from [node] to handle [h]: charge the shard
   cost and schedule delivery after the virtual link latency. *)
let hop ctx (node : Node.t) ~now ~h ~kind ~req ~oi ~level ~prev ~src =
  let sh = ctx.sh in
  let d = Network.dist sh.net node (Network.node_of_handle sh.net h) in
  Cost.send ctx.cost ~dist:d;
  send ctx ~time:(now +. (sh.latency *. d)) ~h ~kind ~req ~oi ~level ~prev ~src

(* ---- cache intent buffers: logged mid-window, applied at the barrier
   in shard order (Shard.apply_cache_intents) ---- *)

(* [@alloc_ok]: the buffers double rarely; pushes are int stores. *)
let[@alloc_ok] grow_int a len =
  if len >= Array.length a then begin
    let b = Array.make (max 16 (2 * Array.length a)) 0 in
    Array.blit a 0 b 0 len;
    b
  end
  else a

let push_fill ctx ~h ~key ~srv ~gen ~epoch =
  ctx.fi_h <- grow_int ctx.fi_h ctx.fi_len;
  ctx.fi_key <- grow_int ctx.fi_key ctx.fi_len;
  ctx.fi_srv <- grow_int ctx.fi_srv ctx.fi_len;
  ctx.fi_gen <- grow_int ctx.fi_gen ctx.fi_len;
  ctx.fi_epoch <- grow_int ctx.fi_epoch ctx.fi_len;
  ctx.fi_h.(ctx.fi_len) <- h;
  ctx.fi_key.(ctx.fi_len) <- key;
  ctx.fi_srv.(ctx.fi_len) <- srv;
  ctx.fi_gen.(ctx.fi_len) <- gen;
  ctx.fi_epoch.(ctx.fi_len) <- epoch;
  ctx.fi_len <- ctx.fi_len + 1

let push_evict ctx ~h ~key ~srv =
  ctx.ev_h <- grow_int ctx.ev_h ctx.ev_len;
  ctx.ev_key <- grow_int ctx.ev_key ctx.ev_len;
  ctx.ev_srv <- grow_int ctx.ev_srv ctx.ev_len;
  ctx.ev_h.(ctx.ev_len) <- h;
  ctx.ev_key.(ctx.ev_len) <- key;
  ctx.ev_srv.(ctx.ev_len) <- srv;
  ctx.ev_len <- ctx.ev_len + 1

let push_epoch ctx ~key ~srv =
  ctx.ep_key <- grow_int ctx.ep_key ctx.ep_len;
  ctx.ep_srv <- grow_int ctx.ep_srv ctx.ep_len;
  ctx.ep_key.(ctx.ep_len) <- key;
  ctx.ep_srv.(ctx.ep_len) <- srv;
  ctx.ep_len <- ctx.ep_len + 1

(* Digest a cache hit: append the (key, srv) pair unless this window
   already logged it or the digest is full.  Linear scan over at most
   [digest_cap] entries, shard-confined. *)
let rec digest_scan ctx ~key ~srv j =
  if j >= ctx.hd_len then -1
  else if ctx.hd_key.(j) = key && ctx.hd_srv.(j) = srv then j
  else digest_scan ctx ~key ~srv (j + 1)

let log_digest ctx ~key ~srv ~gen ~epoch =
  if ctx.hd_len < digest_cap && digest_scan ctx ~key ~srv 0 < 0 then begin
    ctx.hd_key <- grow_int ctx.hd_key ctx.hd_len;
    ctx.hd_srv <- grow_int ctx.hd_srv ctx.hd_len;
    ctx.hd_gen <- grow_int ctx.hd_gen ctx.hd_len;
    ctx.hd_epoch <- grow_int ctx.hd_epoch ctx.hd_len;
    ctx.hd_key.(ctx.hd_len) <- key;
    ctx.hd_srv.(ctx.hd_len) <- srv;
    ctx.hd_gen.(ctx.hd_len) <- gen;
    ctx.hd_epoch.(ctx.hd_len) <- epoch;
    ctx.hd_len <- ctx.hd_len + 1
  end

(* A cache miss marks the node as wanting hints — once per window per
   node ([want_stamp] dedup), so the want ring is bounded by the
   shard's active node set. *)
let log_want ctx (node : Node.t) =
  let sh = ctx.sh in
  let h = node.Node.handle in
  let w = sh.win.(0) in
  if sh.want_stamp.(h) <> w then begin
    sh.want_stamp.(h) <- w;
    ctx.wt_h <- grow_int ctx.wt_h ctx.wt_len;
    ctx.wt_h.(ctx.wt_len) <- h;
    ctx.wt_len <- ctx.wt_len + 1
  end

(* Pointer probe + surrogate climb, shared by LOCATE (after a cache miss)
   and LOCATE_NC.  [wl] is the walk level, [rc] the request's redirect
   count, re-packed into the outgoing level (0 when cache is off, so the
   uncached message stream is untouched). *)
let locate_climb ctx (node : Node.t) ~now ~req ~oi ~wl ~rc ~src ~base_guid ~nc =
  let sh = ctx.sh in
  (* a usable pointer redirects the walk to the closest live server *)
  ctx.pred_now <- now;
  ctx.cur <- node;
  ctx.best_h <- -1;
  ctx.best_d <- infinity;
  Pointer_store.iter_guid node.Node.pointers base_guid ~f:ctx.sel;
  if ctx.best_h >= 0 then
    hop ctx node ~now ~h:ctx.best_h ~kind:op_fetch ~req ~oi ~level:rc
      ~prev:(-1) ~src:ctx.best_h
  else begin
    next_hop ctx node sh.guids.(oi) wl;
    if ctx.scan_h >= 0 then
      hop ctx node ~now ~h:ctx.scan_h
        ~kind:(if nc then op_locate_nc else op_locate)
        ~req ~oi
        ~level:(ctx.scan_level lor (rc lsl rc_shift))
        ~prev:(-1) ~src
    else
      (* reached the root without intersecting a publish path *)
      complete_failed ctx ~req
  end

let rec dispatch ctx (node : Node.t) ~now ~kind ~req ~oi ~level ~prev ~src =
  let sh = ctx.sh in
  let base_oi = oi - (oi mod sh.roots) in
  let base_guid = sh.guids.(base_oi) in
  if kind = op_locate then begin
    let wl = level land level_mask in
    let rc = level lsr rc_shift in
    match sh.cache with
    | None -> locate_climb ctx node ~now ~req ~oi ~wl ~rc ~src ~base_guid ~nc:false
    | Some c ->
        (* record this hop for the fill unwind *)
        if req >= 0 then begin
          let plen = Char.code (Bytes.get sh.req_plen req) in
          if plen < path_cap then begin
            sh.req_path.((req * path_cap) + plen) <- node.Node.handle;
            Bytes.set sh.req_plen req (Char.chr (plen + 1))
          end
        end;
        let key = base_oi / sh.roots in
        let i = Obj_cache.probe c ~h:node.Node.handle ~key in
        if i >= 0 then begin
          let srv = Obj_cache.probe_srv c i in
          if
            Mailbox.generation sh.mb srv = Obj_cache.probe_gen c i
            && Node.is_alive (Network.node_of_handle sh.net srv)
          then begin
            (* epoch, generation and liveness all current: redirect.
               [prev] carries this holder so a lying entry can be
               retracted by the fetch. *)
            ctx.tally.hits <- ctx.tally.hits + 1;
            if sh.coop then begin
              if Obj_cache.probe_is_hint c i then
                ctx.tally.hint_hits <- ctx.tally.hint_hits + 1;
              log_digest ctx ~key ~srv ~gen:(Obj_cache.probe_gen c i)
                ~epoch:(Obj_cache.probe_epoch c i)
            end;
            hop ctx node ~now ~h:srv ~kind:op_fetch ~req ~oi ~level:rc
              ~prev:node.Node.handle ~src:srv
          end
          else begin
            (* the server died (handles are never reused, so a
               generation mismatch means the same): own-line evict *)
            Obj_cache.evict_at c i;
            ctx.tally.stale <- ctx.tally.stale + 1;
            ctx.tally.evicts <- ctx.tally.evicts + 1;
            if sh.coop then log_want ctx node;
            locate_climb ctx node ~now ~req ~oi ~wl ~rc ~src ~base_guid
              ~nc:false
          end
        end
        else begin
          if i = -2 then begin
            (* epoch-stale entry self-evicted by the probe *)
            ctx.tally.stale <- ctx.tally.stale + 1;
            ctx.tally.evicts <- ctx.tally.evicts + 1
          end
          else ctx.tally.misses <- ctx.tally.misses + 1;
          if sh.coop then log_want ctx node;
          locate_climb ctx node ~now ~req ~oi ~wl ~rc ~src ~base_guid ~nc:false
        end
  end
  else if kind = op_fetch then begin
    if Node.stores_replica node base_guid then begin
      complete_ok ctx ~now ~req;
      (* unwind: offer this server to every recorded hop of the path.
         The epoch snapshot is taken NOW — a racing unpublish's bump is
         applied before fills at the barrier, so such a fill lands
         already-stale instead of masking the retraction. *)
      match sh.cache with
      | Some c when req >= 0 ->
          let key = base_oi / sh.roots in
          let self = node.Node.handle in
          let ep = Obj_cache.epoch_of c ~key ~srv:self in
          let gen = Mailbox.generation sh.mb self in
          let plen = Char.code (Bytes.get sh.req_plen req) in
          for k = 0 to plen - 1 do
            let tgt = sh.req_path.((req * path_cap) + k) in
            if tgt <> self then begin
              push_fill ctx ~h:tgt ~key ~srv:self ~gen ~epoch:ep;
              ctx.tally.fills <- ctx.tally.fills + 1
            end
          done
      | _ -> ()
    end
    else begin
      (* the replica left between redirect and arrival (cached shortcut
         gone stale, or a pointer racing its unpublish retraction):
         spend one redirect and resume the search from this server *)
      let rc = level + 1 in
      match sh.cache with
      | Some _ when rc <= rc_max + 1 ->
          if prev >= 0 then begin
            (* retract the lying entry at its holder *)
            push_evict ctx ~h:prev ~key:(base_oi / sh.roots)
              ~srv:node.Node.handle;
            ctx.tally.stale <- ctx.tally.stale + 1;
            ctx.tally.evicts <- ctx.tally.evicts + 1
          end;
          ctx.tally.recoveries <- ctx.tally.recoveries + 1;
          dispatch ctx node ~now
            ~kind:(if rc >= rc_max then op_locate_nc else op_locate)
            ~req ~oi ~level:(rc lsl rc_shift) ~prev:(-1) ~src
      | _ -> complete_failed ctx ~req
    end
  end
  else if kind = op_publish then begin
    if prev < 0 then Node.add_replica node base_guid;
    let server_id = (Network.node_of_handle sh.net src).Node.id in
    let previous =
      if prev < 0 then None
      else Some (Network.node_of_handle sh.net prev).Node.id
    in
    ignore
      (Pointer_store.store node.Node.pointers ~guid:base_guid
         ~server:server_id ~root_idx:(oi - base_oi) ~previous
         ~expires:(now +. sh.ttl));
    next_hop ctx node sh.guids.(oi) level;
    if ctx.scan_h >= 0 then
      hop ctx node ~now ~h:ctx.scan_h ~kind:op_publish ~req ~oi
        ~level:ctx.scan_level ~prev:node.Node.handle ~src
    else complete_ok ctx ~now ~req
  end
  else if kind = op_unpublish then begin
    if prev < 0 then begin
      Node.remove_replica node base_guid;
      (* origin of the retraction: invalidate cached shortcuts naming
         this (object, server) pair — the origin node IS the server
         (logged on the base oi only; root walks oi > base_oi share the
         same key) *)
      match sh.cache with
      | Some _ when oi = base_oi ->
          push_epoch ctx ~key:(base_oi / sh.roots) ~srv:node.Node.handle
      | _ -> ()
    end;
    let server_id = (Network.node_of_handle sh.net src).Node.id in
    ignore
      (Pointer_store.remove node.Node.pointers ~guid:base_guid
         ~server:server_id ~root_idx:(oi - base_oi));
    next_hop ctx node sh.guids.(oi) level;
    if ctx.scan_h >= 0 then
      hop ctx node ~now ~h:ctx.scan_h ~kind:op_unpublish ~req ~oi
        ~level:ctx.scan_level ~prev:node.Node.handle ~src
    else complete_ok ctx ~now ~req
  end
  else
    (* op_locate_nc: the cache-free climb; its FETCH carries the
       redirect count on, so the budget stays bounded *)
    locate_climb ctx node ~now ~req ~oi ~wl:(level land level_mask)
      ~rc:(level lsr rc_shift) ~src ~base_guid ~nc:true

(* The drain: FIFO over the mailbox, [service] virtual seconds per
   message, until the ring is empty.  [drain_head] pops the next message
   into the in-service slot and schedules its service-done event;
   [serve_done] re-checks the generation — the node may have been killed
   at a barrier during service, and the message in hand dies with it —
   then dispatches and loops.  With [service = 0] no event is scheduled
   and the message is served at once. *)
let rec drain_head ctx h gen =
  let mb = ctx.sh.mb in
  if Mailbox.generation mb h <> gen then ()
  else if Mailbox.length mb h = 0 then Mailbox.set_busy mb h false
  else begin
    Mailbox.take mb h;
    let service = ctx.sh.service in
    if service > 0. then
      Timer.push ctx.tm ~time:(ctx.tm.Timer.clock +. service) ~kind:ev_service
        ~h ~g:gen
    else serve_done ctx h gen
  end

and serve_done ctx h gen =
  let sh = ctx.sh in
  let mb = sh.mb in
  let req = mb.Mailbox.s_req.(h) in
  if Mailbox.generation mb h <> gen then begin
    (* killed mid-service: the in-hand message is a dead letter *)
    ctx.dead_letter <- ctx.dead_letter + 1;
    if req >= 0 then begin
      Bytes.set sh.req_status req st_dead_letter;
      ctx.failed <- ctx.failed + 1
    end
  end
  else begin
    dispatch ctx
      (Network.node_of_handle sh.net h)
      ~now:ctx.tm.Timer.clock ~kind:mb.Mailbox.s_kind.(h) ~req
      ~oi:mb.Mailbox.s_oi.(h) ~level:mb.Mailbox.s_level.(h)
      ~prev:mb.Mailbox.s_prev.(h) ~src:mb.Mailbox.s_src.(h);
    drain_head ctx h gen
  end

(* Run every timer event at or before [limit], including events pushed
   meanwhile, then lift the shard clock to [limit]. *)
let rec run_until ctx limit =
  let tm = ctx.tm in
  if Timer.peek_time tm <= limit then begin
    ignore (Timer.pop_into tm : bool);
    let kind = tm.Timer.o_kind in
    if kind = ev_inject then ctx.inject ctx
    else if kind = ev_service then serve_done ctx tm.Timer.o_h tm.Timer.o_g
    else drain_head ctx tm.Timer.o_h tm.Timer.o_g;
    run_until ctx limit
  end
  else Timer.lift tm limit

(* Deliver one transport message (already popped into [tr.o_*]): dead
   letters and ring overflow are terminal for the request; otherwise
   enqueue and, if the actor is idle, schedule its drain start. *)
let deliver ctx ~time =
  let sh = ctx.sh in
  let tr = ctx.tr in
  let h = tr.Mailbox.Transport.o_h in
  let req = tr.Mailbox.Transport.o_req in
  ctx.delivered <- ctx.delivered + 1;
  if
    Mailbox.generation sh.mb h <> tr.Mailbox.Transport.o_g
    || not (Node.is_alive (Network.node_of_handle sh.net h))
  then begin
    ctx.dead_letter <- ctx.dead_letter + 1;
    if req >= 0 then begin
      Bytes.set sh.req_status req st_dead_letter;
      ctx.failed <- ctx.failed + 1
    end
  end
  else if
    not
      (Mailbox.push sh.mb h ~kind:tr.Mailbox.Transport.o_kind ~req
         ~oi:tr.Mailbox.Transport.o_oi ~level:tr.Mailbox.Transport.o_level
         ~prev:tr.Mailbox.Transport.o_prev ~src:tr.Mailbox.Transport.o_src)
  then begin
    let kind = tr.Mailbox.Transport.o_kind in
    let prev = tr.Mailbox.Transport.o_prev in
    let rc = tr.Mailbox.Transport.o_level + 1 in
    if
      kind = op_fetch && req >= 0 && rc <= rc_max + 1
      && prev >= 0 && prev <> h
      && Node.is_alive (Network.node_of_handle sh.net prev)
    then begin
      (* overflow relief: a cache-hit FETCH ([prev] is the entry's
         holder) is issued at injection time, so a same-window burst
         lands on a hot server as one batch and overflows its ring.
         Instead of failing, spend one redirect and resume the climb
         from the holder, which spreads the retry over later windows.
         The climb is cache-free at any [rc]: a cached one would re-hit
         the holder's entry and resend the FETCH to the same server. *)
      ctx.tally.recoveries <- ctx.tally.recoveries + 1;
      send ctx ~time ~h:prev ~kind:op_locate_nc ~req
        ~oi:tr.Mailbox.Transport.o_oi ~level:(rc lsl rc_shift) ~prev:(-1)
        ~src:tr.Mailbox.Transport.o_src
    end
    else begin
      (* bounded mailbox full: drop the newcomer (backpressure policy) *)
      ctx.dropped <- ctx.dropped + 1;
      if req >= 0 then begin
        Bytes.set sh.req_status req st_dropped;
        ctx.failed <- ctx.failed + 1
      end
    end
  end
  else if not (Mailbox.is_busy sh.mb h) then begin
    Mailbox.set_busy sh.mb h true;
    let clock = ctx.tm.Timer.clock in
    Timer.push ctx.tm
      ~time:(if time > clock then time else clock)
      ~kind:ev_drain ~h ~g:(Mailbox.generation sh.mb h)
  end
