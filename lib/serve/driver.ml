(* Open-loop load generator for the serving runtime (DESIGN.md
   section 9).

   Each shard owns an injector, a step function run from the shard's
   event heap, drawing exponential inter-arrival gaps at
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
module Events = Mailbox.Events
module Rows = Mailbox.Rows
module Rng = Simnet.Rng
module Hist = Simnet.Stats.Hist
module Zipf = Simnet.Zipf

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
  cache_size : int;  (* object-cache ways per node; 0 = every probe misses *)
  coop : bool;  (* cooperative hint exchange (effective at cache_size > 0) *)
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
  dropped_by : int array;  (* [dropped] by opcode of the dropped message *)
  dead_letter : int;
  exhausted : int;  (* failed at the FETCH site, redirect budget spent *)
  root_miss : int;  (* failed at the root without a usable pointer *)
  chain_lost : int;  (* fire-and-forget chain messages dropped or dead *)
  delivered : int;
  kills : int;
  joins : int;
  duration_v : float;
  wall_s : float;
  barriers : int;
  tally : Simnet.Stats.Tally.t;  (* merged cache counters (zeros at --cache 0) *)
}

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

(* One chain per root; the request's slot tag rides chain 0, the
   others are fire-and-forget so replica/pointer state stays
   root-symmetric. *)
let send_chains ctx ~roots ~now ~kind ~req ~obj ~srv_h =
  for r = 0 to roots - 1 do
    Actor.send ctx ~time:now ~h:srv_h ~kind
      ~req:(if r = 0 then req else -1)
      ~oi:((obj * roots) + r)
      ~level:0 ~prev:(-1) ~src:srv_h
  done

(* The injector's step, run on each of its events: issue request
   [inj_k] (none at the start event), then schedule the next event one
   exponential gap later, [count] requests in all.  [log] is the
   shard's (server handle, object) publishes, the unpublish victim
   pool. *)
let inject_step params z log ~count ~mean_gap (ctx : Actor.ctx) =
  let sh = ctx.Actor.sh in
  let net = sh.Actor.net in
  let rng = ctx.Actor.rng in
  let roots = sh.Actor.roots in
  let q = ctx.Actor.q in
  let k = ctx.Actor.inj_k in
  if k >= 0 then begin
    let now = q.Events.clock.(0) in
    let req = Actor.open_req ctx in
    ctx.Actor.injected <- ctx.Actor.injected + 1;
    let u = Rng.float rng 1.0 in
    let obj = Zipf.sample z rng in
    if u < params.p_publish then begin
      let srv = net.Network.alive_arr.(Rng.int rng net.Network.alive_len) in
      Rows.push2 log srv.Node.handle obj;
      send_chains ctx ~roots ~now ~kind:Actor.op_publish ~req ~obj
        ~srv_h:srv.Node.handle
    end
    else if u < params.p_publish +. params.p_unpublish && Rows.length log > 0
    then begin
      let i = Rng.int rng (Rows.length log) in
      let srv_h = Rows.get log i 0 and obj' = Rows.get log i 1 in
      Rows.swap_remove log i;
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
    Events.schedule q
      ~time:(q.Events.clock.(0) +. (if gap > 0. then gap else 0.))
      ~kind:Actor.ev_inject ~h:0
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
     server, in object order, so locates have something to find *)
  let srng = Rng.create ((params.seed * 2) + 1) in
  let servers =
    Array.init params.objects (fun _ ->
        net.Network.alive_arr.(Rng.int srng net.Network.alive_len))
  in
  Publish.place net ~servers
    (Array.init params.objects (fun o -> guids.(o * roots)));
  (* object cache, zero-way at --cache-size 0.  The engine's
     key for object o is o = oi / roots.  A cache with ways is attached
     to the network, its keys interned in that order, so the
     quiescent-point [Audit.run] and the sync unpublish see it; a
     zero-way cache holds nothing to audit or retract, and the network
     of its run carries none. *)
  let cache =
    Obj_cache.create ~ways:(max 0 params.cache_size) ~nodes:net.Network.arena_len
  in
  net.Network.obj_cache <- None;
  if cache.Obj_cache.ways > 0 then begin
    for o = 0 to params.objects - 1 do
      ignore (Obj_cache.intern cache guids.(o * roots) : int)
    done;
    net.Network.obj_cache <- Some cache
  end;
  let t =
    Shard.create ~net ~guids ~roots ~ttl:params.ttl ~latency:params.latency
      ~service:params.service ~mailbox_cap:params.mailbox_cap
      ~seed:params.seed ~window:params.window ~cache ~coop:params.coop
  in
  let z = Zipf.create ~s:params.zipf_s ~n:params.objects in
  let per = params.requests / Shard.shard_count in
  let extra = params.requests mod Shard.shard_count in
  let mean_gap = float_of_int Shard.shard_count /. params.rate in
  for s = 0 to Shard.shard_count - 1 do
    let count = per + (if s < extra then 1 else 0) in
    let log = Rows.create ~width:2 in
    let ctx = t.Shard.ctxs.(s) in
    ctx.Actor.inject <- inject_step params z log ~count ~mean_gap;
    if count > 0 then
      Events.schedule ctx.Actor.q ~time:ctx.Actor.q.Events.clock.(0)
        ~kind:Actor.ev_inject ~h:0
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
  let dropped_by = Array.make (Actor.op_locate_nc + 1) 0 in
  Array.iter
    (fun (ctx : Actor.ctx) ->
      Hist.merge ~into:hist_v ctx.Actor.hist_v;
      Hist.merge ~into:hist_w ctx.Actor.hist_w;
      Simnet.Stats.Tally.merge ~into:tally ctx.Actor.tally;
      Array.iteri
        (fun op d -> dropped_by.(op) <- dropped_by.(op) + d)
        ctx.Actor.dropped_by)
    t.Shard.ctxs;
  let sum f = Array.fold_left (fun a ctx -> a + f ctx) 0 t.Shard.ctxs in
  let r =
    {
      engine = t;
      hist_v;
      hist_w;
      injected = sum (fun c -> c.Actor.injected);
      completed = sum (fun c -> c.Actor.completed);
      failed = sum (fun c -> c.Actor.failed);
      dropped = sum (fun c -> c.Actor.dropped);
      dropped_by;
      dead_letter = sum (fun c -> c.Actor.dead_letter);
      exhausted = sum (fun c -> c.Actor.exhausted);
      root_miss = sum (fun c -> c.Actor.root_miss);
      chain_lost = sum (fun c -> c.Actor.chain_lost);
      delivered = sum (fun c -> c.Actor.delivered);
      kills = st.kills;
      joins = st.joins;
      duration_v = st.last_barrier;
      wall_s = 0.;
      barriers = t.Shard.barriers;
      tally;
    }
  in
  ledger.Shard.collect <- clock () -. c1;
  { r with wall_s = now () -. wall0 }

(* Every shard's message store (payload pool and per-handle cells),
   event heap and outbox: where queued and in-flight messages live. *)
let mailbox_bytes (t : Shard.t) =
  let sum = ref 0 in
  Array.iteri
    (fun s mb ->
      let ctx = t.Shard.ctxs.(s) in
      sum :=
        !sum + Mailbox.approx_bytes mb
        + Mailbox.Events.approx_bytes ctx.Actor.q
        + Mailbox.Outbox.approx_bytes ctx.Actor.out)
    t.Shard.sh.Actor.mbs;
  !sum

(* Resident-size estimates of the run's state, from the [approx_bytes]
   estimators.  [Network.memory_footprint] bills an attached object
   cache to the pointer bucket; the engine's cache is split out here.
   The GUID table is one word per (object, root) plus its header. *)
let memory_ledger r =
  let sh = r.engine.Shard.sh in
  let net = sh.Actor.net in
  let fp = Network.memory_footprint net in
  let cache = Obj_cache.approx_bytes sh.Actor.cache in
  let billed = if Option.is_some net.Network.obj_cache then cache else 0 in
  [
    ("tables", fp.Network.table_bytes);
    ("pointers", fp.Network.pointer_bytes - billed);
    ("cache", cache);
    ("mailbox", mailbox_bytes r.engine);
    ("requests", Actor.request_bytes sh);
    ("guids", (Array.length sh.Actor.guids + 1) * 8);
    ( "rest",
      fp.Network.node_bytes + fp.Network.directory_bytes
      + fp.Network.metric_bytes + fp.Network.scratch_bytes );
  ]

(* Deterministic fingerprint of a run: merged virtual histogram plus the
   integer counters, cache and hint counters included.  Excludes every
   wall-clock-derived quantity, so it must be bit-identical across
   domain counts.  The failure causes are left out: they partition
   [fail].  So are the drops by class, which sum to [drop], and the
   chain losses, which fail no request. *)
let signature r =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "inj=%d comp=%d fail=%d drop=%d dead=%d del=%d k=%d j=%d b=%d dur=%.9f;"
       r.injected r.completed r.failed r.dropped r.dead_letter r.delivered
       r.kills r.joins r.barriers r.duration_v);
  let tl = r.tally in
  Buffer.add_string b
    (Printf.sprintf "ch=%d cm=%d cs=%d cf=%d ce=%d cr=%d;hf=%d hh=%d;"
       tl.Simnet.Stats.Tally.hits tl.Simnet.Stats.Tally.misses
       tl.Simnet.Stats.Tally.stale tl.Simnet.Stats.Tally.fills
       tl.Simnet.Stats.Tally.evicts tl.Simnet.Stats.Tally.recoveries
       tl.Simnet.Stats.Tally.hint_fills tl.Simnet.Stats.Tally.hint_hits);
  Array.iteri
    (fun i c -> if c > 0 then Buffer.add_string b (Printf.sprintf "%d:%d," i c))
    (Hist.counts r.hist_v);
  Buffer.contents b
