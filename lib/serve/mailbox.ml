(* Message plumbing for the actor runtime (DESIGN.md section 9).

   Three flat, allocation-free structures:

   - [t]: the system-wide mailbox array — one bounded FIFO ring per
     arena handle over struct-of-arrays int payloads, generation-
     stamped like [Scratch] so a dead node's queue can be invalidated
     in O(1) and in-flight messages addressed to the old incarnation
     are recognized as dead letters — plus one in-service slot per
     handle, holding the message an actor popped and is serving;
   - [Events]: a per-shard binary min-heap holding the shard's in-flight
     messages and its engine events (drain start, service done,
     injector step), keyed by (time, class, push sequence) — the stable
     tie-break that makes replay exact — with payloads parked in a
     free-listed side pool so sift swaps move three words, not ten; it
     also carries the shard's virtual clock;
   - [Outbox]: a per-shard append log of cross-shard sends, drained
     into the target shards' event heaps at window barriers.

   A message is six ints: [kind] (the Actor opcode), [req] (global
   request id, -1 for fire-and-forget chains), [oi] (object x root_set
   index into the driver's salted-guid table), [level] (walk level,
   also carrying the root index for secondary chains), [prev] (arena
   handle of the previous publish hop, -1 at the server), [src] (arena
   handle of the origin server).  In-flight entries add the target
   handle and the target's mailbox generation at send time.

   Results are read in place (ring slots via [msg_index], in-service
   slots by handle, event heads via per-shard [o_*] scratch) rather
   than returned records, so the per-message path allocates nothing
   (this file is on the typed lint's hot-path list).
   Scratch fields live only on per-shard structures; the shared
   mailbox arena has none. *)

type t = {
  cap : int;  (* ring capacity per handle; overflow drops the newcomer *)
  mutable handles : int;  (* handles covered by the arrays below *)
  (* rings, indexed [h * cap + k] *)
  mutable r_kind : int array;
  mutable r_req : int array;
  mutable r_oi : int array;
  mutable r_level : int array;
  mutable r_prev : int array;
  mutable r_src : int array;
  (* per-handle ring state *)
  mutable head : int array;
  mutable len : int array;
  mutable gen : int array;
  mutable busy : int array;
      (* 1 from the delivery that finds the actor idle until its drain
         finds the ring empty: a drain-start or service-done event is
         pending for the handle *)
  (* in-service slots, indexed by handle: the message the actor popped
     and is serving until its service-done event *)
  mutable s_kind : int array;
  mutable s_req : int array;
  mutable s_oi : int array;
  mutable s_level : int array;
  mutable s_prev : int array;
  mutable s_src : int array;
}

(* [@alloc_ok]: setup-time constructor, one allocation per run. *)
let[@alloc_ok] create ~cap ~handles =
  if cap <= 0 then invalid_arg "Mailbox.create: cap must be positive";
  let handles = max handles 1 in
  {
    cap;
    handles;
    r_kind = Array.make (handles * cap) 0;
    r_req = Array.make (handles * cap) 0;
    r_oi = Array.make (handles * cap) 0;
    r_level = Array.make (handles * cap) 0;
    r_prev = Array.make (handles * cap) 0;
    r_src = Array.make (handles * cap) 0;
    head = Array.make handles 0;
    len = Array.make handles 0;
    gen = Array.make handles 0;
    busy = Array.make handles 0;
    s_kind = Array.make handles 0;
    s_req = Array.make handles 0;
    s_oi = Array.make handles 0;
    s_level = Array.make handles 0;
    s_prev = Array.make handles 0;
    s_src = Array.make handles 0;
  }

(* [@alloc_ok]: barrier-only growth after churn joins.  Grows by an
   eighth (or to [handles] if that is more): still geometric, so the
   amortized copy cost over a run is O(final size), while a few churn
   joins no longer double rings sized for the whole mesh. *)
let[@alloc_ok] ensure t ~handles =
  if handles > t.handles then begin
    let nh = max handles (t.handles + (t.handles / 8)) in
    let grow_ring old =
      let a = Array.make (nh * t.cap) 0 in
      Array.blit old 0 a 0 (t.handles * t.cap);
      a
    in
    let grow old fill =
      let a = Array.make nh fill in
      Array.blit old 0 a 0 t.handles;
      a
    in
    t.r_kind <- grow_ring t.r_kind;
    t.r_req <- grow_ring t.r_req;
    t.r_oi <- grow_ring t.r_oi;
    t.r_level <- grow_ring t.r_level;
    t.r_prev <- grow_ring t.r_prev;
    t.r_src <- grow_ring t.r_src;
    t.head <- grow t.head 0;
    t.len <- grow t.len 0;
    t.gen <- grow t.gen 0;
    t.busy <- grow t.busy 0;
    t.s_kind <- grow t.s_kind 0;
    t.s_req <- grow t.s_req 0;
    t.s_oi <- grow t.s_oi 0;
    t.s_level <- grow t.s_level 0;
    t.s_prev <- grow t.s_prev 0;
    t.s_src <- grow t.s_src 0;
    t.handles <- nh
  end

let capacity t = t.cap

(* [@alloc_ok]: footprint accounting, once per report.  Six rings of
   [handles * cap] ints and ten per-handle int arrays, with headers. *)
let[@alloc_ok] approx_bytes t =
  let word = 8 in
  let ring = ((t.handles * t.cap) + 1) * word
  and per_handle = (t.handles + 1) * word in
  (19 * word) + (6 * ring) + (10 * per_handle)

let generation t h = t.gen.(h)

let length t h = t.len.(h)

let is_busy t h = t.busy.(h) <> 0

let set_busy t h b = t.busy.(h) <- (if b then 1 else 0)

let push t h ~kind ~req ~oi ~level ~prev ~src =
  if t.len.(h) >= t.cap then false
  else begin
    let k = t.head.(h) + t.len.(h) in
    let k = if k >= t.cap then k - t.cap else k in
    let i = (h * t.cap) + k in
    t.r_kind.(i) <- kind;
    t.r_req.(i) <- req;
    t.r_oi.(i) <- oi;
    t.r_level.(i) <- level;
    t.r_prev.(i) <- prev;
    t.r_src.(i) <- src;
    t.len.(h) <- t.len.(h) + 1;
    true
  end

(* Readers consume the FIFO head in place — [msg_index] to locate the
   slot, direct [r_*] reads, then [advance].  The mailbox arena is
   shared by every shard, so there is deliberately NO out-param scratch
   on [t]: shard-local reads of the owner's ring slots are the only
   race-free way to pop concurrently (a shared scratch field would be a
   cross-domain write on every pop). *)
let msg_index t h = (h * t.cap) + t.head.(h)

let advance t h =
  let k = t.head.(h) + 1 in
  t.head.(h) <- (if k >= t.cap then 0 else k);
  t.len.(h) <- t.len.(h) - 1

(* Pop handle [h]'s FIFO head into its in-service slot, where the
   message waits out its service time; only the owner shard's drain
   touches either. *)
let take t h =
  let i = msg_index t h in
  t.s_kind.(h) <- t.r_kind.(i);
  t.s_req.(h) <- t.r_req.(i);
  t.s_oi.(h) <- t.r_oi.(i);
  t.s_level.(h) <- t.r_level.(i);
  t.s_prev.(h) <- t.r_prev.(i);
  t.s_src.(h) <- t.r_src.(i);
  advance t h

(* Invalidate a dead node's mailbox: queued requests are the caller's
   to account (iterate with [msg_index]/[advance] first), then the
   generation bump turns any message still in flight toward the old
   incarnation into a recognizable dead letter. *)
let kill t h =
  t.head.(h) <- 0;
  t.len.(h) <- 0;
  t.busy.(h) <- 0;
  t.gen.(h) <- t.gen.(h) + 1

(* The event queue of one shard: in-flight messages and engine events
   (drain start, service done, injector step) in one binary min-heap,
   ordered by (time, class, push seq).  Engine events are class 0 and
   messages class 1, so at equal times every engine event runs before
   every message; the class rides the sequence word's bit 61 beside one
   shared push counter, so [before] stays two compares.  The heap triple
   (time, seq, pool slot) lives in three parallel arrays; payloads stay
   put in a free-listed pool while sifting.  An engine event uses the
   pool's kind (a negative code, below every Actor opcode), h and g. *)
module Events = struct
  type q = {
    mutable tt : float array;  (* event time *)
    mutable ts : int array;  (* class bit lor push sequence: stable ties *)
    mutable tp : int array;  (* payload pool slot *)
    mutable tlen : int;
    mutable seq : int;
    (* payload pool + free list *)
    mutable p_h : int array;
    mutable p_g : int array;
    mutable p_kind : int array;
    mutable p_req : int array;
    mutable p_oi : int array;
    mutable p_level : int array;
    mutable p_prev : int array;
    mutable p_src : int array;
    mutable free : int array;
    mutable free_len : int;
    mutable pcap : int;
    clock : float array;  (* clock.(0): the shard's virtual time, unboxed *)
    (* out-params of [pop_into] *)
    mutable o_h : int;
    mutable o_g : int;
    mutable o_kind : int;
    mutable o_req : int;
    mutable o_oi : int;
    mutable o_level : int;
    mutable o_prev : int;
    mutable o_src : int;
  }

  let message_class = 1 lsl 61

  (* [@alloc_ok]: per-shard constructor, once per run. *)
  let[@alloc_ok] create () =
    let cap = 64 in
    {
      tt = Array.make cap 0.;
      ts = Array.make cap 0;
      tp = Array.make cap 0;
      tlen = 0;
      seq = 0;
      p_h = Array.make cap 0;
      p_g = Array.make cap 0;
      p_kind = Array.make cap 0;
      p_req = Array.make cap 0;
      p_oi = Array.make cap 0;
      p_level = Array.make cap 0;
      p_prev = Array.make cap 0;
      p_src = Array.make cap 0;
      free = Array.make cap 0;
      free_len = 0;
      pcap = 0;
      clock = Array.make 1 0.;
      o_h = 0;
      o_g = 0;
      o_kind = 0;
      o_req = 0;
      o_oi = 0;
      o_level = 0;
      o_prev = 0;
      o_src = 0;
    }

  let peek_time t = if t.tlen = 0 then infinity else t.tt.(0)

  (* [@alloc_ok]: amortized doubling, off the steady-state path. *)
  let[@alloc_ok] grow_heap t =
    let cap = Array.length t.tt * 2 in
    let gf a fill =
      let b = Array.make cap fill in
      Array.blit a 0 b 0 t.tlen;
      b
    in
    t.tt <- gf t.tt 0.;
    t.ts <- gf t.ts 0;
    t.tp <- gf t.tp 0

  let[@alloc_ok] grow_pool t =
    let cap = Array.length t.p_h * 2 in
    let gi a =
      let b = Array.make cap 0 in
      Array.blit a 0 b 0 (Array.length a);
      b
    in
    t.p_h <- gi t.p_h;
    t.p_g <- gi t.p_g;
    t.p_kind <- gi t.p_kind;
    t.p_req <- gi t.p_req;
    t.p_oi <- gi t.p_oi;
    t.p_level <- gi t.p_level;
    t.p_prev <- gi t.p_prev;
    t.p_src <- gi t.p_src;
    t.free <- gi t.free

  let before t i j =
    t.tt.(i) < t.tt.(j) || (t.tt.(i) = t.tt.(j) && t.ts.(i) < t.ts.(j))

  let swap t i j =
    let ft = t.tt.(i) in
    t.tt.(i) <- t.tt.(j);
    t.tt.(j) <- ft;
    let s = t.ts.(i) in
    t.ts.(i) <- t.ts.(j);
    t.ts.(j) <- s;
    let p = t.tp.(i) in
    t.tp.(i) <- t.tp.(j);
    t.tp.(j) <- p

  let rec sift_up t i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      if before t i parent then begin
        swap t i parent;
        sift_up t parent
      end
    end

  let rec sift_down t i =
    let l = (2 * i) + 1 in
    if l < t.tlen then begin
      let r = l + 1 in
      let m = if r < t.tlen && before t r l then r else l in
      if before t m i then begin
        swap t i m;
        sift_down t m
      end
    end

  (* Take a pool slot for an event of [kind] to handle [h] (mailbox
     generation [g]), then heap-insert it at [time] in class [cls]. *)
  let insert t ~time ~cls ~kind ~h ~g =
    let slot =
      if t.free_len > 0 then begin
        t.free_len <- t.free_len - 1;
        t.free.(t.free_len)
      end
      else begin
        if t.pcap >= Array.length t.p_h then grow_pool t;
        let s = t.pcap in
        t.pcap <- t.pcap + 1;
        s
      end
    in
    t.p_h.(slot) <- h;
    t.p_g.(slot) <- g;
    t.p_kind.(slot) <- kind;
    if t.tlen >= Array.length t.tt then grow_heap t;
    let i = t.tlen in
    t.tt.(i) <- time;
    t.ts.(i) <- cls lor t.seq;
    t.tp.(i) <- slot;
    t.seq <- t.seq + 1;
    t.tlen <- i + 1;
    sift_up t i;
    slot

  let schedule t ~time ~kind ~h ~g =
    ignore (insert t ~time ~cls:0 ~kind ~h ~g : int)

  let push t ~time ~h ~g ~kind ~req ~oi ~level ~prev ~src =
    let slot = insert t ~time ~cls:message_class ~kind ~h ~g in
    t.p_req.(slot) <- req;
    t.p_oi.(slot) <- oi;
    t.p_level.(slot) <- level;
    t.p_prev.(slot) <- prev;
    t.p_src.(slot) <- src

  let pop_into t =
    if t.tlen = 0 then false
    else begin
      let slot = t.tp.(0) in
      let time = t.tt.(0) in
      if time > t.clock.(0) then t.clock.(0) <- time;
      t.o_h <- t.p_h.(slot);
      t.o_g <- t.p_g.(slot);
      t.o_kind <- t.p_kind.(slot);
      t.o_req <- t.p_req.(slot);
      t.o_oi <- t.p_oi.(slot);
      t.o_level <- t.p_level.(slot);
      t.o_prev <- t.p_prev.(slot);
      t.o_src <- t.p_src.(slot);
      t.free.(t.free_len) <- slot;
      t.free_len <- t.free_len + 1;
      t.tlen <- t.tlen - 1;
      if t.tlen > 0 then begin
        swap t 0 t.tlen;
        (* entry at tlen is now garbage; fix the root *)
        sift_down t 0
      end;
      true
    end

  let lift t limit = if limit > t.clock.(0) then t.clock.(0) <- limit
end

(* Cross-shard sends buffered during a window, drained sequentially at
   the barrier.  Append order is the shard's deterministic execution
   order, and barriers drain shards in index order, so the target
   event heap's sequence assignment — and therefore same-time delivery
   order — is independent of the domain count. *)
module Outbox = struct
  type ob = {
    mutable b_time : float array;
    mutable b_h : int array;
    mutable b_g : int array;
    mutable b_kind : int array;
    mutable b_req : int array;
    mutable b_oi : int array;
    mutable b_level : int array;
    mutable b_prev : int array;
    mutable b_src : int array;
    mutable blen : int;
  }

  (* [@alloc_ok]: per-shard constructor, once per run. *)
  let[@alloc_ok] create () =
    let cap = 64 in
    {
      b_time = Array.make cap 0.;
      b_h = Array.make cap 0;
      b_g = Array.make cap 0;
      b_kind = Array.make cap 0;
      b_req = Array.make cap 0;
      b_oi = Array.make cap 0;
      b_level = Array.make cap 0;
      b_prev = Array.make cap 0;
      b_src = Array.make cap 0;
      blen = 0;
    }

  let[@alloc_ok] grow t =
    let cap = Array.length t.b_h * 2 in
    let gi a =
      let b = Array.make cap 0 in
      Array.blit a 0 b 0 t.blen;
      b
    in
    let gtf =
      let b = Array.make cap 0. in
      Array.blit t.b_time 0 b 0 t.blen;
      b
    in
    t.b_time <- gtf;
    t.b_h <- gi t.b_h;
    t.b_g <- gi t.b_g;
    t.b_kind <- gi t.b_kind;
    t.b_req <- gi t.b_req;
    t.b_oi <- gi t.b_oi;
    t.b_level <- gi t.b_level;
    t.b_prev <- gi t.b_prev;
    t.b_src <- gi t.b_src

  let push t ~time ~h ~g ~kind ~req ~oi ~level ~prev ~src =
    if t.blen >= Array.length t.b_h then grow t;
    let i = t.blen in
    t.b_time.(i) <- time;
    t.b_h.(i) <- h;
    t.b_g.(i) <- g;
    t.b_kind.(i) <- kind;
    t.b_req.(i) <- req;
    t.b_oi.(i) <- oi;
    t.b_level.(i) <- level;
    t.b_prev.(i) <- prev;
    t.b_src.(i) <- src;
    t.blen <- t.blen + 1

  let clear t = t.blen <- 0
end
