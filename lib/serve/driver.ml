(* Open-loop load generator for the serving runtime (DESIGN.md
   section 9).

   Each shard owns an injector, a step function run from the shard's
   timer heap, drawing exponential inter-arrival gaps at
   [rate / shard_count] from its private RNG stream, so the aggregate
   arrival process is open-loop Poisson at [rate] and injection is
   deterministic per shard regardless of the domain count.
   Object popularity is Zipf(s): rank 0 is the hottest object, and with
   a hot enough head the per-actor service time turns the popular roots
   into real queueing bottlenecks — which is the point of the tier.

   The request mix is locate / publish / unpublish; unpublish draws a
   victim from the shard's own publish log so it always retracts
   something that was actually published (falling back to locate when
   the log is empty).  Churn, when enabled, fires at barriers from a
   dedicated RNG: failures pick a live victim and [Shard.kill_node] it;
   joins re-use the metric address of an earlier victim (the metric has
   no spare points), inserting through a random live gateway. *)

open Tapestry
module Timer = Mailbox.Timer
module Rng = Simnet.Rng
module Hist = Simnet.Stats.Hist
module Workload = Evaluation.Workload

type params = {
  seed : int;
  requests : int;
  rate : float;  (* aggregate arrivals per virtual second *)
  zipf_s : float;
  objects : int;
  p_publish : float;
  p_unpublish : float;
  latency : float;  (* virtual seconds per unit of metric distance *)
  service : float;  (* virtual seconds of actor work per message *)
  ttl : float;  (* serve-time pointer expiry horizon *)
  window : float;
  mailbox_cap : int;
  kill_rate : float;  (* node failures per virtual second *)
  join_rate : float;  (* churn joins per virtual second *)
  domains : int;  (* <= 0: Parallel.recommended () *)
  cache_size : int;  (* object-cache ways per node; 0 disables *)
  coop : bool;  (* cooperative hint exchange (needs cache_size > 0) *)
}

let default =
  {
    seed = 42;
    requests = 100_000;
    rate = 50_000.;
    zipf_s = 0.9;
    objects = 1_000;
    p_publish = 0.05;
    p_unpublish = 0.01;
    latency = 1e-5;
    service = 1e-4;
    ttl = 1e6;
    window = 0.02;
    mailbox_cap = 64;
    kill_rate = 0.;
    join_rate = 0.;
    domains = 0;
    cache_size = 0;
    coop = false;
  }

type result = {
  engine : Shard.t;
  hist_v : Hist.h;  (* merged completed-request virtual latency *)
  hist_w : Hist.h;  (* merged wall latency (info only) *)
  injected : int;
  completed : int;
  failed : int;
  dropped : int;
  dead_letter : int;
  delivered : int;
  kills : int;
  joins : int;
  duration_v : float;
  wall_s : float;
  barriers : int;
  tally : Simnet.Stats.Tally.t;  (* merged cache counters (zeros at --cache 0) *)
}

(* Per-shard log of (server handle, object) publishes, the unpublish
   victim pool. *)
type publog = {
  mutable ps : int array;
  mutable po : int array;
  mutable plen : int;
}

let publog_push l ~srv ~obj =
  if l.plen >= Array.length l.ps then begin
    let c = max 16 (2 * Array.length l.ps) in
    let ps = Array.make c 0 and po = Array.make c 0 in
    Array.blit l.ps 0 ps 0 l.plen;
    Array.blit l.po 0 po 0 l.plen;
    l.ps <- ps;
    l.po <- po
  end;
  l.ps.(l.plen) <- srv;
  l.po.(l.plen) <- obj;
  l.plen <- l.plen + 1

(* Object GUIDs: one [Network.fresh_id] draw per object, which avoids
   node IDs but not earlier objects' GUIDs.  A repeat steps to the next
   ID in radix order that is neither drawn nor registered, without
   another draw, so the RNG sequence is the same with or without
   collisions. *)
let make_guids net ~objects ~roots =
  let cfg = net.Network.config in
  let base = cfg.Config.base and len = cfg.Config.id_digits in
  let space = int_of_float (float_of_int base ** float_of_int len) in
  if objects > space - Node_id.Tbl.length net.Network.nodes then
    invalid_arg "Driver.run: more objects than unused IDs";
  let drawn = Node_id.Tbl.create (max 16 objects) in
  let rec unused g =
    if Node_id.Tbl.mem drawn g || Node_id.Tbl.mem net.Network.nodes g then
      unused (Node_id.of_int ~base ~len ((Node_id.to_int ~base g + 1) mod space))
    else g
  in
  let a = Array.make (objects * roots) (Network.fresh_id net) in
  for o = 0 to objects - 1 do
    let g = unused (Network.fresh_id net) in
    Node_id.Tbl.add drawn g ();
    for r = 0 to roots - 1 do
      a.((o * roots) + r) <- Network.salted net g r
    done
  done;
  a

(* One chain per root; the request id rides chain 0, the others are
   fire-and-forget so replica/pointer state stays root-symmetric. *)
let send_chains ctx ~roots ~now ~kind ~req ~obj ~srv_h =
  for r = 0 to roots - 1 do
    Actor.send ctx ~time:now ~h:srv_h ~kind
      ~req:(if r = 0 then req else -1)
      ~oi:((obj * roots) + r)
      ~level:0 ~prev:(-1) ~src:srv_h
  done

(* The injector's step, run on each of its timer events: issue request
   [inj_k] (none at the start event), then schedule the next event one
   exponential gap later, [count] requests in all. *)
let inject_step params z log ~reqbase ~count ~mean_gap (ctx : Actor.ctx) =
  let sh = ctx.Actor.sh in
  let net = sh.Actor.net in
  let rng = ctx.Actor.rng in
  let roots = sh.Actor.roots in
  let tm = ctx.Actor.tm in
  let k = ctx.Actor.inj_k in
  if k >= 0 then begin
    let now = tm.Timer.clock in
    let req = reqbase + k in
    sh.Actor.req_t0.(req) <- now;
    sh.Actor.req_w0.(req) <- sh.Actor.wall.(0);
    ctx.Actor.injected <- ctx.Actor.injected + 1;
    let u = Rng.float rng 1.0 in
    let obj = Workload.zipf_sample z rng in
    if u < params.p_publish then begin
      let srv = net.Network.alive_arr.(Rng.int rng net.Network.alive_len) in
      publog_push log ~srv:srv.Node.handle ~obj;
      send_chains ctx ~roots ~now ~kind:Actor.op_publish ~req ~obj
        ~srv_h:srv.Node.handle
    end
    else if u < params.p_publish +. params.p_unpublish && log.plen > 0
    then begin
      let i = Rng.int rng log.plen in
      let srv_h = log.ps.(i) and obj' = log.po.(i) in
      log.ps.(i) <- log.ps.(log.plen - 1);
      log.po.(i) <- log.po.(log.plen - 1);
      log.plen <- log.plen - 1;
      send_chains ctx ~roots ~now ~kind:Actor.op_unpublish ~req ~obj:obj'
        ~srv_h
    end
    else begin
      let c = net.Network.alive_arr.(Rng.int rng net.Network.alive_len) in
      let r = if roots = 1 then 0 else Rng.int rng roots in
      Actor.send ctx ~time:now ~h:c.Node.handle ~kind:Actor.op_locate ~req
        ~oi:((obj * roots) + r)
        ~level:0 ~prev:(-1) ~src:c.Node.handle
    end
  end;
  ctx.Actor.inj_k <- k + 1;
  if k + 1 < count then begin
    let gap = Rng.exponential rng ~mean:mean_gap in
    Timer.push tm
      ~time:(tm.Timer.clock +. (if gap > 0. then gap else 0.))
      ~kind:Actor.ev_inject ~h:0 ~g:0
  end

(* Barrier-time churn bookkeeping (all driven by one dedicated RNG so
   the injector streams stay untouched by churn settings). *)
type churn_state = {
  crng : Rng.t;
  mutable kill_acc : float;
  mutable join_acc : float;
  mutable last_barrier : float;
  mutable freed_addrs : int list;
  mutable kills : int;
  mutable joins : int;
}

let churn_barrier params st t barrier =
  let net = t.Shard.sh.Actor.net in
  let dt = barrier -. st.last_barrier in
  st.last_barrier <- barrier;
  st.kill_acc <- st.kill_acc +. (params.kill_rate *. dt);
  st.join_acc <- st.join_acc +. (params.join_rate *. dt);
  while st.kill_acc >= 1. do
    st.kill_acc <- st.kill_acc -. 1.;
    if net.Network.alive_len > 8 then begin
      let victim = net.Network.alive_arr.(Rng.int st.crng net.Network.alive_len) in
      st.freed_addrs <- victim.Node.addr :: st.freed_addrs;
      Shard.kill_node t victim;
      st.kills <- st.kills + 1
    end
  done;
  while st.join_acc >= 1. do
    st.join_acc <- st.join_acc -. 1.;
    match st.freed_addrs with
    | [] -> ()  (* no reusable metric point yet *)
    | addr :: rest ->
        st.freed_addrs <- rest;
        let gw = net.Network.alive_arr.(Rng.int st.crng net.Network.alive_len) in
        ignore (Insert.insert net ~gateway:gw ~addr : Insert.report);
        st.joins <- st.joins + 1
  done

let run ?(clock = fun () -> 0.) ~net params ~now =
  if params.objects <= 0 then invalid_arg "Driver.run: objects <= 0";
  if params.rate <= 0. then invalid_arg "Driver.run: rate <= 0";
  if params.requests < 0 then invalid_arg "Driver.run: requests < 0";
  let wall0 = now () in
  let c0 = clock () in
  let roots = net.Network.config.Config.root_set_size in
  let guids = make_guids net ~objects:params.objects ~roots in
  (* initial placement: every object published once from a random live
     server, sequentially, so locates have something to find *)
  let srng = Rng.create ((params.seed * 2) + 1) in
  for o = 0 to params.objects - 1 do
    let server = net.Network.alive_arr.(Rng.int srng net.Network.alive_len) in
    ignore
      (Publish.publish net ~server guids.(o * roots) : Publish.outcome)
  done;
  (* object cache (PR 9): keys are interned in object order up front, so
     key o = oi / roots for every message and no hot-path interning is
     needed; the cache is attached to the network so the quiescent-point
     [Audit.run] sees it *)
  let cache =
    if params.cache_size <= 0 then begin
      (* defensive: a cache left attached by an earlier run on this
         mesh must not leak into an uncached row *)
      net.Network.obj_cache <- None;
      None
    end
    else begin
      let c =
        Obj_cache.create ~ways:params.cache_size ~nodes:net.Network.arena_len
      in
      for o = 0 to params.objects - 1 do
        ignore (Obj_cache.intern c guids.(o * roots) : int)
      done;
      net.Network.obj_cache <- Some c;
      Some c
    end
  in
  let t =
    Shard.create ~net ~guids ~roots ~ttl:params.ttl ~latency:params.latency
      ~service:params.service ~requests:params.requests
      ~mailbox_cap:params.mailbox_cap ~seed:params.seed
      ~window:params.window ~cache ~coop:params.coop
  in
  let z = Workload.zipf ~s:params.zipf_s ~n:params.objects in
  let per = params.requests / Shard.shard_count in
  let extra = params.requests mod Shard.shard_count in
  let mean_gap = float_of_int Shard.shard_count /. params.rate in
  for s = 0 to Shard.shard_count - 1 do
    let count = per + (if s < extra then 1 else 0) in
    let reqbase = (s * per) + min s extra in
    let log = { ps = [||]; po = [||]; plen = 0 } in
    let ctx = t.Shard.ctxs.(s) in
    ctx.Actor.inject <- inject_step params z log ~reqbase ~count ~mean_gap;
    if count > 0 then
      Timer.push ctx.Actor.tm ~time:ctx.Actor.tm.Timer.clock
        ~kind:Actor.ev_inject ~h:0 ~g:0
  done;
  let st =
    {
      crng = Rng.create ((params.seed * 2) + 2);
      kill_acc = 0.;
      join_acc = 0.;
      last_barrier = 0.;
      freed_addrs = [];
      kills = 0;
      joins = 0;
    }
  in
  let domains =
    if params.domains <= 0 then Simnet.Parallel.recommended ()
    else params.domains
  in
  let ledger = t.Shard.ledger in
  ledger.Shard.setup <- clock () -. c0;
  Shard.run ~clock t ~domains ~now ~on_barrier:(churn_barrier params st);
  let c1 = clock () in
  let hist_v = Hist.create () and hist_w = Hist.create () in
  let tally = Simnet.Stats.Tally.create () in
  let injected = ref 0
  and completed = ref 0
  and failed = ref 0
  and dropped = ref 0
  and dead_letter = ref 0
  and delivered = ref 0 in
  Array.iter
    (fun (ctx : Actor.ctx) ->
      Hist.merge ~into:hist_v ctx.Actor.hist_v;
      Hist.merge ~into:hist_w ctx.Actor.hist_w;
      Simnet.Stats.Tally.merge ~into:tally ctx.Actor.tally;
      injected := !injected + ctx.Actor.injected;
      completed := !completed + ctx.Actor.completed;
      failed := !failed + ctx.Actor.failed;
      dropped := !dropped + ctx.Actor.dropped;
      dead_letter := !dead_letter + ctx.Actor.dead_letter;
      delivered := !delivered + ctx.Actor.delivered)
    t.Shard.ctxs;
  ledger.Shard.collect <- clock () -. c1;
  {
    engine = t;
    hist_v;
    hist_w;
    injected = !injected;
    completed = !completed;
    failed = !failed;
    dropped = !dropped;
    dead_letter = !dead_letter;
    delivered = !delivered;
    kills = st.kills;
    joins = st.joins;
    duration_v = st.last_barrier;
    wall_s = now () -. wall0;
    barriers = t.Shard.barriers;
    tally;
  }

(* Deterministic fingerprint of a run: merged virtual histogram plus the
   integer counters.  Excludes every wall-clock-derived quantity, so it
   must be bit-identical across domain counts.  Cache counters are
   appended only when the cache saw traffic, so cache-off signatures
   match the pre-cache engine's byte for byte. *)
let signature r =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "inj=%d comp=%d fail=%d drop=%d dead=%d del=%d k=%d j=%d b=%d dur=%.9f;"
       r.injected r.completed r.failed r.dropped r.dead_letter r.delivered
       r.kills r.joins r.barriers r.duration_v);
  let tl = r.tally in
  if Simnet.Stats.Tally.lookups tl + tl.Simnet.Stats.Tally.fills > 0 then
    Buffer.add_string b
      (Printf.sprintf "ch=%d cm=%d cs=%d cf=%d ce=%d cr=%d;"
         tl.Simnet.Stats.Tally.hits tl.Simnet.Stats.Tally.misses
         tl.Simnet.Stats.Tally.stale tl.Simnet.Stats.Tally.fills
         tl.Simnet.Stats.Tally.evicts tl.Simnet.Stats.Tally.recoveries);
  (* hint counters follow the same pattern: only appended when the
     cooperative layer actually moved hints, so coop-off signatures
     carry no hint fields *)
  if tl.Simnet.Stats.Tally.hint_fills + tl.Simnet.Stats.Tally.hint_hits > 0
  then
    Buffer.add_string b
      (Printf.sprintf "hf=%d hh=%d;" tl.Simnet.Stats.Tally.hint_fills
         tl.Simnet.Stats.Tally.hint_hits);
  Array.iteri
    (fun i c -> if c > 0 then Buffer.add_string b (Printf.sprintf "%d:%d," i c))
    (Hist.counts r.hist_v);
  Buffer.contents b
