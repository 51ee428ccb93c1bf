(* Message plumbing for the actor runtime (DESIGN.md section 9).

   Flat, allocation-free structures, all per shard:

   - [t]: the shard's message store — a free-listed payload pool with
     one slot per message in flight to, or queued at, one of the
     shard's handles, and per handle a bounded FIFO chained through
     the pool's [r_next] column, plus the in-service slot: the pool
     slot of the message the actor took and is serving, -1 while the
     actor is idle.  An actor is busy exactly while a message is in
     service;
   - [Events]: a binary min-heap over the store's pool holding the
     shard's in-flight messages and its engine events (service done,
     injector step), keyed by (time, class, push sequence) — the
     stable tie-break that makes replay exact — so sift swaps move
     three words, not ten; it also carries the shard's virtual clock;
   - [Outbox]: a per-shard append log of cross-shard sends, drained
     into the target shards' event heaps at window barriers;
   - [Rows]: a growable log of fixed-width int rows, the one shape of
     every other per-shard log the barrier replays.

   A message is six ints: [kind] (the Actor opcode), [req] (the tag of
   its request's slot, -1 for fire-and-forget chains), [oi] (object x root_set
   index into the driver's salted-guid table), [level] (walk level,
   also carrying the root index for secondary chains), [prev] (arena
   handle of the previous publish hop, -1 at the server), [src] (arena
   handle of the origin server).  A pool slot adds the target handle.
   A dead target is read off the node itself: churn never revives a
   node or reuses its handle, so a message to a handle that is no
   longer alive is a dead letter (DESIGN.md section 9.1).  A message keeps
   its slot from send to the end of its service: delivery links the
   slot into the target's FIFO, [take] moves it to the in-service
   index, and nothing is copied on the way.

   Results are read in place (pool slots via [msg_index] and
   [in_service], event heads via the heap's [o_*] scratch) rather than
   returned records, so the per-message path allocates nothing (this
   file is on the typed lint's hot-path list). *)

type t = {
  cap : int;  (* queued messages per handle; one more drops the newcomer *)
  stride : int;  (* handle [h]'s cells sit at [h / stride] *)
  mutable cells : int;  (* entries of the per-handle arrays below *)
  (* payload pool, indexed by slot *)
  mutable r_h : int array;
  mutable r_kind : int array;
  mutable r_req : int array;
  mutable r_oi : int array;
  mutable r_level : int array;
  mutable r_prev : int array;
  mutable r_src : int array;
  mutable r_next : int array;
      (* FIFO successor of a queued slot, next free slot of a free one;
         -1 ends either chain *)
  mutable free : int;  (* first free slot, -1 when none *)
  mutable used : int;  (* slots ever handed out: the pool's high-water mark *)
  (* per-handle FIFO state, indexed [h / stride] *)
  mutable head : int array;  (* first queued slot, -1 when empty *)
  mutable tail : int array;  (* last queued slot *)
  mutable len : int array;
  mutable serving : int array;
      (* pool slot of the message the actor took and is serving until
         its service-done event, -1 while the actor is idle *)
}

let pool_cap0 = 64

(* [@alloc_ok]: setup-time constructor, one allocation per shard. *)
let[@alloc_ok] create_strided ~stride ~cap ~handles =
  if cap <= 0 then invalid_arg "Mailbox.create: cap must be positive";
  if stride <= 0 then invalid_arg "Mailbox.create: stride must be positive";
  let cells = max 1 ((handles + stride - 1) / stride) in
  {
    cap;
    stride;
    cells;
    r_h = Array.make pool_cap0 0;
    r_kind = Array.make pool_cap0 0;
    r_req = Array.make pool_cap0 0;
    r_oi = Array.make pool_cap0 0;
    r_level = Array.make pool_cap0 0;
    r_prev = Array.make pool_cap0 0;
    r_src = Array.make pool_cap0 0;
    r_next = Array.make pool_cap0 (-1);
    free = -1;
    used = 0;
    head = Array.make cells (-1);
    tail = Array.make cells (-1);
    len = Array.make cells 0;
    serving = Array.make cells (-1);
  }

let create ~cap ~handles = create_strided ~stride:1 ~cap ~handles

(* [@alloc_ok]: barrier-only growth after churn joins.  Grows by an
   eighth (or to what is needed if that is more): still geometric, so
   the amortized copy cost over a run is O(final size). *)
let[@alloc_ok] ensure t ~handles =
  let need = (handles + t.stride - 1) / t.stride in
  if need > t.cells then begin
    let nh = max need (t.cells + (t.cells / 8)) in
    let grow old fill =
      let a = Array.make nh fill in
      Array.blit old 0 a 0 t.cells;
      a
    in
    t.head <- grow t.head (-1);
    t.tail <- grow t.tail (-1);
    t.len <- grow t.len 0;
    t.serving <- grow t.serving (-1);
    t.cells <- nh
  end

let pool_capacity t = Array.length t.r_h

(* Footprint accounting: eight pool columns and four per-handle int
   arrays, with headers. *)
let approx_bytes t =
  let word = 8 in
  (18 * word)
  + (8 * (pool_capacity t + 1) * word)
  + (4 * (t.cells + 1) * word)

(* [@alloc_ok]: amortized doubling of the pool, off the steady-state
   path.  New slots are not on the free chain: [alloc] hands them out
   past [used]. *)
let[@alloc_ok] grow_pool t =
  let cap = pool_capacity t * 2 in
  let gi a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  in
  t.r_h <- gi t.r_h 0;
  t.r_kind <- gi t.r_kind 0;
  t.r_req <- gi t.r_req 0;
  t.r_oi <- gi t.r_oi 0;
  t.r_level <- gi t.r_level 0;
  t.r_prev <- gi t.r_prev 0;
  t.r_src <- gi t.r_src 0;
  t.r_next <- gi t.r_next (-1)

let alloc t =
  if t.free >= 0 then begin
    let s = t.free in
    t.free <- t.r_next.(s);
    s
  end
  else begin
    if t.used >= pool_capacity t then grow_pool t;
    let s = t.used in
    t.used <- s + 1;
    s
  end

let release t slot =
  t.r_next.(slot) <- t.free;
  t.free <- slot

let length t h = t.len.(h / t.stride)

let is_busy t h = t.serving.(h / t.stride) >= 0

let enqueue t h slot =
  let c = h / t.stride in
  if t.len.(c) >= t.cap then false
  else begin
    t.r_next.(slot) <- -1;
    if t.len.(c) = 0 then t.head.(c) <- slot
    else t.r_next.(t.tail.(c)) <- slot;
    t.tail.(c) <- slot;
    t.len.(c) <- t.len.(c) + 1;
    true
  end

let push t h ~kind ~req ~oi ~level ~prev ~src =
  if t.len.(h / t.stride) >= t.cap then false
  else begin
    let s = alloc t in
    t.r_h.(s) <- h;
    t.r_kind.(s) <- kind;
    t.r_req.(s) <- req;
    t.r_oi.(s) <- oi;
    t.r_level.(s) <- level;
    t.r_prev.(s) <- prev;
    t.r_src.(s) <- src;
    enqueue t h s
  end

let msg_index t h = t.head.(h / t.stride)

(* Unlink handle [h]'s FIFO head and return its slot. *)
let unlink t h =
  let c = h / t.stride in
  let s = t.head.(c) in
  t.head.(c) <- t.r_next.(s);
  t.len.(c) <- t.len.(c) - 1;
  if t.len.(c) = 0 then t.tail.(c) <- -1;
  s

let advance t h = release t (unlink t h)

(* Take handle [h]'s FIFO head into service; with the FIFO empty the
   actor goes idle instead and the answer is [false]. *)
let take t h =
  let c = h / t.stride in
  t.serving.(c) <- (if t.len.(c) = 0 then -1 else unlink t h);
  t.serving.(c) >= 0

let in_service t h = t.serving.(h / t.stride)

(* Empty a dead node's mailbox: queued messages are the caller's to
   account first (read them with [msg_index] and [advance]); any left go
   back to the pool here.  A message in service keeps its slot until
   its service-done event finds the node dead. *)
let kill t h =
  while length t h > 0 do
    advance t h
  done

(* The event queue of one shard: in-flight messages and engine events
   (service done, injector step) in one binary min-heap,
   ordered by (time, class, push seq).  Engine events are class 0 and
   messages class 1, so at equal times every engine event runs before
   every message; the class rides the sequence word's bit 61 beside one
   shared push counter, so [before] stays two compares.  The heap triple
   (time, seq, pool slot) lives in three parallel arrays; payloads stay
   put in the shard's mailbox pool while sifting.  An engine event uses
   the slot's kind (a negative code, below every Actor opcode) and h,
   and frees the slot when popped; a popped message's slot is the
   caller's. *)
module Events = struct
  type q = {
    mb : t;  (* the shard's mailbox, whose pool holds every payload *)
    mutable tt : float array;  (* event time *)
    mutable ts : int array;  (* class bit lor push sequence: stable ties *)
    mutable tp : int array;  (* payload pool slot *)
    mutable tlen : int;
    mutable seq : int;
    clock : float array;  (* clock.(0): the shard's virtual time, unboxed *)
    (* out-params of [pop_into] *)
    mutable o_h : int;
    mutable o_kind : int;
    mutable o_slot : int;
  }

  let message_class = 1 lsl 61

  (* [@alloc_ok]: per-shard constructor, once per run. *)
  let[@alloc_ok] create mb =
    let cap = 64 in
    {
      mb;
      tt = Array.make cap 0.;
      ts = Array.make cap 0;
      tp = Array.make cap 0;
      tlen = 0;
      seq = 0;
      clock = Array.make 1 0.;
      o_h = 0;
      o_kind = 0;
      o_slot = -1;
    }

  (* Footprint accounting: the heap's three columns and the clock cell;
     the pool is the mailbox's. *)
  let approx_bytes t =
    let word = 8 in
    (11 * word) + (3 * (Array.length t.tt + 1) * word) + (2 * word)

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

  (* Take a pool slot for an event of [kind] to handle [h], then
     heap-insert it at [time] in class [cls]. *)
  let insert t ~time ~cls ~kind ~h =
    let mb = t.mb in
    let slot = alloc mb in
    mb.r_h.(slot) <- h;
    mb.r_kind.(slot) <- kind;
    if t.tlen >= Array.length t.tt then grow_heap t;
    let i = t.tlen in
    t.tt.(i) <- time;
    t.ts.(i) <- cls lor t.seq;
    t.tp.(i) <- slot;
    t.seq <- t.seq + 1;
    t.tlen <- i + 1;
    sift_up t i;
    slot

  let schedule t ~time ~kind ~h = ignore (insert t ~time ~cls:0 ~kind ~h : int)

  let push t ~time ~h ~kind ~req ~oi ~level ~prev ~src =
    let slot = insert t ~time ~cls:message_class ~kind ~h in
    let mb = t.mb in
    mb.r_req.(slot) <- req;
    mb.r_oi.(slot) <- oi;
    mb.r_level.(slot) <- level;
    mb.r_prev.(slot) <- prev;
    mb.r_src.(slot) <- src

  let pop_into t =
    if t.tlen = 0 then false
    else begin
      let mb = t.mb in
      let slot = t.tp.(0) in
      let time = t.tt.(0) in
      if time > t.clock.(0) then t.clock.(0) <- time;
      t.o_h <- mb.r_h.(slot);
      t.o_kind <- mb.r_kind.(slot);
      t.o_slot <- slot;
      if t.ts.(0) land message_class = 0 then release mb slot;
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
      b_kind = Array.make cap 0;
      b_req = Array.make cap 0;
      b_oi = Array.make cap 0;
      b_level = Array.make cap 0;
      b_prev = Array.make cap 0;
      b_src = Array.make cap 0;
      blen = 0;
    }

  (* Footprint accounting: eight columns with headers. *)
  let approx_bytes t =
    let word = 8 in
    (10 * word) + (8 * (Array.length t.b_h + 1) * word)

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
    t.b_kind <- gi t.b_kind;
    t.b_req <- gi t.b_req;
    t.b_oi <- gi t.b_oi;
    t.b_level <- gi t.b_level;
    t.b_prev <- gi t.b_prev;
    t.b_src <- gi t.b_src

  let push t ~time ~h ~kind ~req ~oi ~level ~prev ~src =
    if t.blen >= Array.length t.b_h then grow t;
    let i = t.blen in
    t.b_time.(i) <- time;
    t.b_h.(i) <- h;
    t.b_kind.(i) <- kind;
    t.b_req.(i) <- req;
    t.b_oi.(i) <- oi;
    t.b_level.(i) <- level;
    t.b_prev.(i) <- prev;
    t.b_src.(i) <- src;
    t.blen <- t.blen + 1

  let clear t = t.blen <- 0
end

(* A growable log of int rows of one fixed width, stored row by row in
   one array: the shard's barrier-replayed logs (repair owners, cache
   intents, hint digest, want ring), the digit buckets and the driver's
   publish logs.  Growth doubles, so pushes after warm-up allocate
   nothing. *)
module Rows = struct
  type t = { width : int; mutable a : int array; mutable n : int }

  (* [@alloc_ok]: one log per owner, once per run. *)
  let[@alloc_ok] create ~width =
    if width <= 0 then invalid_arg "Mailbox.Rows.create: width must be positive";
    { width; a = [||]; n = 0 }

  let length r = r.n

  let get r i k = r.a.((i * r.width) + k)

  (* [@alloc_ok]: amortized doubling, off the steady-state path. *)
  let[@alloc_ok] grow r =
    let b = Array.make (max (16 * r.width) (2 * Array.length r.a)) 0 in
    Array.blit r.a 0 b 0 (r.n * r.width);
    r.a <- b

  (* Append a row and return its offset in [a]. *)
  let next r =
    let o = r.n * r.width in
    if o + r.width > Array.length r.a then grow r;
    r.n <- r.n + 1;
    o

  let push1 r x =
    let o = next r in
    r.a.(o) <- x

  let push2 r x y =
    let o = next r in
    r.a.(o) <- x;
    r.a.(o + 1) <- y

  let push3 r x y z =
    let o = next r in
    r.a.(o) <- x;
    r.a.(o + 1) <- y;
    r.a.(o + 2) <- z

  let push4 r x y z u =
    let o = next r in
    r.a.(o) <- x;
    r.a.(o + 1) <- y;
    r.a.(o + 2) <- z;
    r.a.(o + 3) <- u

  let swap_remove r i =
    let last = r.n - 1 in
    Array.blit r.a (last * r.width) r.a (i * r.width) r.width;
    r.n <- last

  let clear r = r.n <- 0

  let rec mem2_from r x y i =
    i < r.n
    && ((r.a.(i * r.width) = x && r.a.((i * r.width) + 1) = y)
       || mem2_from r x y (i + 1))

  let mem2 r x y = mem2_from r x y 0
end
