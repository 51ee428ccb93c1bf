(* The windowed barrier-synchronous shard engine (DESIGN.md section 9).

   Handles are partitioned over a FIXED grid of [shard_count] logical
   shards ([handle mod shard_count]); [--domains] only decides how many
   OS domains the grid is folded onto, exactly like
   [Static_build.build_streamed]'s fixed-64-shard sweep — so results are
   bit-identical for every domain count.

   Virtual time advances in windows of width [window].  Within a window
   every shard runs independently: it pops its private event heap
   (messages and engine events) up to the barrier.
   Cross-shard messages buffered in outboxes during the window are
   exchanged sequentially at the barrier in shard index order, with
   delivery times floored to the barrier (a message may not land inside
   a window its target already executed).  Churn and dead-entry repair
   also happen only at barriers, in shard order, so every mutation of
   shared state is sequential and deterministically ordered. *)

open Tapestry
module Events = Mailbox.Events
module Rows = Mailbox.Rows

let shard_count = 64
let shard_of h = h mod shard_count

(* Digit-bucket capacities: rows per first-digit bucket (b1) and per
   two-digit bucket (b2), and the most hints one node line imports per
   barrier.  See [apply_hint_digest]. *)
let b1_cap = 32
let b2_cap = 16
let import_budget = 12

(* Wall seconds of a serve run by phase, read with the caller's clock
   around whole phases only, never per message.  [run] fills the engine
   phases; [setup] and [collect] are the driver's. *)
type ledger = {
  mutable setup : float;  (* driver: guids, placement, engine set-up *)
  mutable drain : float;  (* shard windows: the event loops *)
  mutable flush : float;  (* outbox exchange *)
  mutable repair : float;  (* dead-entry repair *)
  mutable intents : float;  (* cache intents *)
  mutable digest : float;  (* hint digest *)
  mutable churn : float;
      (* on_barrier churn, capacity sync, slot reclaim, next-work scan *)
  mutable collect : float;  (* driver: merging the shards' counters *)
}

type t = {
  sh : Actor.shared;
  ctxs : Actor.ctx array;  (* length [shard_count] *)
  window : float;
  mutable barriers : int;  (* barriers executed so far *)
  ledger : ledger;
  b1 : Rows.t array;  (* digit buckets, rebuilt at every barrier: digest *)
  b2 : Rows.t array;  (* rows by the first 1 (b1) / 2 (b2) root-guid digits *)
}

let create ~net ~guids ~roots ~ttl ~latency ~service ~mailbox_cap ~seed
    ~window ~cache ~coop =
  if window <= 0. then invalid_arg "Shard.create: window <= 0";
  let mbs =
    Array.init shard_count (fun _ ->
        Mailbox.create_strided ~stride:shard_count ~cap:mailbox_cap
          ~handles:net.Network.arena_len)
  in
  let sh =
    Actor.make_shared ~net ~mbs ~shards:shard_count ~guids ~roots ~ttl
      ~latency ~service ~cache ~coop
  in
  let ctxs =
    Array.init shard_count (fun s ->
        Actor.make_ctx sh ~shard:s
          ~rng:(Simnet.Parallel.task_rng ~seed ~task:s))
  in
  let base = sh.Actor.base in
  let coop = sh.Actor.coop in
  {
    sh;
    ctxs;
    window;
    barriers = 0;
    ledger =
      {
        setup = 0.;
        drain = 0.;
        flush = 0.;
        repair = 0.;
        intents = 0.;
        digest = 0.;
        churn = 0.;
        collect = 0.;
      };
    b1 = Array.init (if coop then base else 0) (fun _ -> Rows.create ~width:3);
    b2 =
      Array.init (if coop then base * base else 0) (fun _ ->
          Rows.create ~width:3);
  }

(* The ONLY binding that touches [Domain]: everything transitively
   callable from here runs concurrently on sibling domains and must obey
   the shard-confinement discipline (see lint allowlist).  Shard [s]
   always lands on domain [s / per], so its event heap is only ever
   run by one domain per window. *)
let run_windows_parallel t ~domains ~limit =
  let nd =
    let d = min domains shard_count in
    if d < 1 then 1 else d
  in
  if nd = 1 then
    for s = 0 to shard_count - 1 do
      Actor.run_until t.ctxs.(s) limit
    done
  else begin
    let per = (shard_count + nd - 1) / nd in
    let doms =
      Array.init (nd - 1) (fun k ->
          Domain.spawn (fun () ->
              let lo = (k + 1) * per in
              let hi = min shard_count ((k + 2) * per) - 1 in
              for s = lo to hi do
                Actor.run_until t.ctxs.(s) limit
              done))
    in
    for s = 0 to min shard_count per - 1 do
      Actor.run_until t.ctxs.(s) limit
    done;
    Array.iter Domain.join doms
  end

(* ---- barrier steps: sequential, shard-order, deterministic ---- *)

let flush_outboxes t ~barrier =
  for s = 0 to shard_count - 1 do
    let ob = t.ctxs.(s).Actor.out in
    for i = 0 to ob.Mailbox.Outbox.blen - 1 do
      let h = ob.Mailbox.Outbox.b_h.(i) in
      let time = ob.Mailbox.Outbox.b_time.(i) in
      let time = if time < barrier then barrier else time in
      Events.push
        t.ctxs.(shard_of h).Actor.q
        ~time ~h
        ~kind:ob.Mailbox.Outbox.b_kind.(i)
        ~req:ob.Mailbox.Outbox.b_req.(i)
        ~oi:ob.Mailbox.Outbox.b_oi.(i)
        ~level:ob.Mailbox.Outbox.b_level.(i)
        ~prev:ob.Mailbox.Outbox.b_prev.(i)
        ~src:ob.Mailbox.Outbox.b_src.(i)
    done;
    Mailbox.Outbox.clear ob
  done

let apply_repairs t =
  let net = t.sh.Actor.net in
  for s = 0 to shard_count - 1 do
    let r = t.ctxs.(s).Actor.repairs in
    for i = 0 to Rows.length r - 1 do
      let h = Rows.get r i 0 in
      Bytes.set t.sh.Actor.dirty h '\000';
      ignore (Delete.repair_owner net (Network.node_of_handle net h) : int)
    done;
    Rows.clear r
  done

(* Apply the windows' buffered cache intents sequentially, in shard
   order, bumps -> evicts -> fills: a fill whose epoch snapshot predates
   a same-window unpublish lands already-stale, and an evict cannot be
   undone by a same-window fill of the entry it just retracted. *)
let apply_cache_intents t =
  let c = t.sh.Actor.cache in
  for s = 0 to shard_count - 1 do
    let r = t.ctxs.(s).Actor.bumps in
    for i = 0 to Rows.length r - 1 do
      Obj_cache.bump_epoch c ~key:(Rows.get r i 0) ~srv:(Rows.get r i 1)
    done;
    Rows.clear r
  done;
  for s = 0 to shard_count - 1 do
    let r = t.ctxs.(s).Actor.evicts in
    for i = 0 to Rows.length r - 1 do
      Obj_cache.evict c ~h:(Rows.get r i 0) ~key:(Rows.get r i 1)
        ~server:(Rows.get r i 2)
    done;
    Rows.clear r
  done;
  for s = 0 to shard_count - 1 do
    let r = t.ctxs.(s).Actor.fills in
    for i = 0 to Rows.length r - 1 do
      Obj_cache.insert c ~h:(Rows.get r i 0) ~key:(Rows.get r i 1)
        ~server:(Rows.get r i 2) ~epoch:(Rows.get r i 3)
    done;
    Rows.clear r
  done

(* Cooperative hint exchange (DESIGN.md section 11), running after
   [apply_cache_intents] so every same-window epoch bump has already
   landed.

   Every digest row whose (key, srv) epoch is still current goes into
   digit buckets: one per first digit (b1) and one per first two digits
   (b2) of each of its object's root guids.  A walk for guid g standing
   at level l matches g's first l digits, so a hint for g is worth the
   most at exactly the nodes whose OWN id shares g's leading digits —
   they are the aggregation points every future climb for g funnels
   through.  A row racing its object's unpublish dies here instead of
   occupying a way.

   Then every node on a want ring (it missed this window) is offered
   its own b2 bucket, then its own b1 bucket, until [import_budget]
   hints land.  A hint only fills an empty way, so a line with none is
   skipped, and a bucket is abandoned after 4 offers in a row fail.
   The digests and want rings then restart empty.  Every read and
   write is sequential in shard order, so the exchange is
   bit-identical for any [--domains]. *)
let bucket_add b cap ~key ~srv ~epoch =
  if Rows.length b < cap && not (Rows.mem2 b key srv) then
    Rows.push3 b key srv epoch

(* Offer node [h] the rows of bucket [b] while [budget] lasts; returns
   the budget left. *)
let offer_bucket c (tl : Simnet.Stats.Tally.t) ~h b budget =
  let n = Rows.length b in
  let rec go j budget misses =
    if j >= n || budget <= 0 || misses >= 4 then budget
    else if
      Obj_cache.import_hint c ~h ~key:(Rows.get b j 0)
        ~server:(Rows.get b j 1) ~epoch:(Rows.get b j 2)
    then begin
      tl.hint_fills <- tl.hint_fills + 1;
      tl.fills <- tl.fills + 1;
      go (j + 1) (budget - 1) 0
    end
    else go (j + 1) budget (misses + 1)
  in
  go 0 budget 0

let apply_hint_digest t =
  if t.sh.Actor.coop then begin
    let sh = t.sh in
    let c = sh.Actor.cache in
    let base = sh.Actor.base in
    Array.iter Rows.clear t.b1;
    Array.iter Rows.clear t.b2;
    for s = 0 to shard_count - 1 do
      let d = t.ctxs.(s).Actor.digest in
      for j = 0 to Rows.length d - 1 do
        let key = Rows.get d j 0
        and srv = Rows.get d j 1
        and epoch = Rows.get d j 2 in
        if Obj_cache.epoch_of c ~key ~srv = epoch then
          for r = 0 to sh.Actor.roots - 1 do
            let g = sh.Actor.guids.((key * sh.Actor.roots) + r) in
            let d0 = Node_id.digit g 0 and d1 = Node_id.digit g 1 in
            bucket_add t.b1.(d0) b1_cap ~key ~srv ~epoch;
            bucket_add t.b2.((d0 * base) + d1) b2_cap ~key ~srv ~epoch
          done
      done;
      Rows.clear d
    done;
    for s = 0 to shard_count - 1 do
      let ctx = t.ctxs.(s) in
      let wants = ctx.Actor.wants in
      for w = 0 to Rows.length wants - 1 do
        let h = Rows.get wants w 0 in
        let node = Network.node_of_handle sh.Actor.net h in
        if Node.is_alive node && Obj_cache.has_empty_way c ~h then begin
          let v0 = Node_id.digit node.Node.id 0
          and v1 = Node_id.digit node.Node.id 1 in
          let left =
            offer_bucket c ctx.Actor.tally ~h t.b2.((v0 * base) + v1)
              import_budget
          in
          ignore (offer_bucket c ctx.Actor.tally ~h t.b1.(v0) left : int)
        end
      done;
      Rows.clear wants
    done;
    sh.Actor.win.(0) <- sh.Actor.win.(0) + 1
  end

(* Grow barrier-resized structures after churn joins. *)
let sync_capacity t =
  let sh = t.sh in
  let n = sh.Actor.net.Network.arena_len in
  Array.iter (fun mb -> Mailbox.ensure mb ~handles:n) sh.Actor.mbs;
  Obj_cache.ensure_nodes sh.Actor.cache n;
  if sh.Actor.coop && Array.length sh.Actor.want_stamp < n then begin
    let a = Array.make (max n (2 * Array.length sh.Actor.want_stamp)) (-1) in
    Array.blit sh.Actor.want_stamp 0 a 0 (Array.length sh.Actor.want_stamp);
    sh.Actor.want_stamp <- a
  end;
  if Bytes.length sh.Actor.dirty < n then begin
    let b = Bytes.make (max n (2 * Bytes.length sh.Actor.dirty)) '\000' in
    Bytes.blit sh.Actor.dirty 0 b 0 (Bytes.length sh.Actor.dirty);
    sh.Actor.dirty <- b
  end

(* Node failure at a barrier: queued requests die with the mailbox (their
   slots go back to the owner shard's pool), then the node silently
   fails (repair stays lazy).  Its messages still in flight or in
   service meet a dead node, and become dead letters, when they next
   come up. *)
let kill_node t (node : Node.t) =
  let sh = t.sh in
  let h = node.Node.handle in
  let ctx = t.ctxs.(shard_of h) in
  let mb = sh.Actor.mbs.(shard_of h) in
  while Mailbox.length mb h > 0 do
    let req = mb.Mailbox.r_req.(Mailbox.msg_index mb h) in
    Mailbox.advance mb h;
    Actor.count_dead_letter ctx ~req
  done;
  Mailbox.kill mb h;
  Delete.fail sh.Actor.net node

(* Return every request slot settled since the last barrier to its
   owner's free list, after churn so that the requests its kills fail
   are in. *)
let reclaim_slots t =
  for s = 0 to shard_count - 1 do
    Actor.reclaim t.ctxs.(s)
  done

let next_work_time t =
  let e = ref infinity in
  for s = 0 to shard_count - 1 do
    let h = Events.peek_time t.ctxs.(s).Actor.q in
    if h < !e then e := h
  done;
  !e

(* First window boundary strictly after [e]. *)
let next_barrier t e =
  let k = Float.of_int (int_of_float (Float.floor (e /. t.window))) in
  let b = (k +. 1.) *. t.window in
  if b <= e then b +. t.window else b

let run ?(clock = fun () -> 0.) t ~domains ~now ~on_barrier =
  let l = t.ledger in
  let mark = ref (clock ()) in
  (* wall seconds since the previous lap *)
  let lap () =
    let c = clock () in
    let d = c -. !mark in
    mark := c;
    d
  in
  let rec loop barrier =
    run_windows_parallel t ~domains ~limit:barrier;
    l.drain <- l.drain +. lap ();
    t.barriers <- t.barriers + 1;
    t.sh.Actor.wall.(0) <- now ();
    flush_outboxes t ~barrier;
    l.flush <- l.flush +. lap ();
    apply_repairs t;
    l.repair <- l.repair +. lap ();
    apply_cache_intents t;
    l.intents <- l.intents +. lap ();
    apply_hint_digest t;
    l.digest <- l.digest +. lap ();
    on_barrier t barrier;
    sync_capacity t;
    reclaim_slots t;
    let e = next_work_time t in
    l.churn <- l.churn +. lap ();
    if e < infinity then loop (next_barrier t e)
  in
  t.sh.Actor.wall.(0) <- now ();
  let e = next_work_time t in
  if e < infinity then loop (next_barrier t e)

(* Drive the mesh to an auditable quiescent point: advance the virtual
   clock, repair every dead link and hole, drop backpointers whose
   source died, and expire stale soft state.  After this [Audit.run]
   must be clean even for a churned run. *)
let quiesce t ~clock =
  let net = t.sh.Actor.net in
  net.Network.clock <- clock;
  Network.iter_alive net (fun owner -> ignore (Delete.repair_owner net owner : int));
  ignore (Delete.repair_all_holes net : int);
  Network.iter_alive net (fun n ->
      let t = n.Node.table in
      for level = Routing_table.levels t - 1 downto 0 do
        for k = Routing_table.backpointer_len t ~level - 1 downto 0 do
          let h = Routing_table.backpointer_handle t ~level ~k in
          if not (Node.is_alive (Network.node_of_handle net h)) then
            Routing_table.remove_backpointer ~handle:h t ~level
              (Routing_table.backpointer_id t ~level ~k)
        done
      done);
  ignore (Maintenance.expire_all net : int)
