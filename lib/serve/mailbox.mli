(** Message plumbing for the actor runtime, all of it per shard: the
    shard's message store (a free-listed payload pool plus, per handle,
    a bounded FIFO chained through the pool and one in-service slot),
    the shard's event heap over that pool (in-flight messages and
    engine events), the cross-shard outbox, and {!Rows}, the
    fixed-width int log every other per-shard log is made of
    (DESIGN.md section 9).

    A message is six ints — [kind] (Actor opcode), [req] (its request's
    slot tag, see [Actor.open_req]; [-1] for fire-and-forget), [oi]
    (object x root index into the
    driver's salted-guid table), [level] (walk level, packed with the
    root index for secondary chains), [prev] (previous publish hop's
    arena handle, [-1] at the server), [src] (origin server's handle).
    Its pool slot also carries the target handle.  A target that is no
    longer alive makes the message a dead letter: churn never revives a
    node or reuses its handle, so the node's own liveness is the whole
    test (DESIGN.md section 9.1).  A message keeps one slot from send to
    the end of its service: delivery links it into the target's FIFO
    ({!enqueue}), {!take} hands it to the in-service index, and it goes
    back to the free list at service end, on an overflow drop, on a dead
    letter, or at {!kill}.  Memory follows the traffic: the pool holds
    only messages in flight or queued, never [cap] cells per handle.

    All structures are struct-of-arrays read in place instead of
    through returned records, so steady-state operations allocate
    nothing; the record types are exposed transparently for exactly
    that field access.  Concurrency: a shard's store serves the handles
    [h] with [h mod stride] fixed and is only touched by that shard
    during a window; growth and {!kill} happen only at barriers.  The
    stores carry no out-param scratch: pops go through {!msg_index} or
    {!in_service} and direct pool reads (DESIGN.md section 9.5). *)

type t = {
  cap : int;
  stride : int;
  mutable cells : int;
  mutable r_h : int array;
  mutable r_kind : int array;
  mutable r_req : int array;
  mutable r_oi : int array;
  mutable r_level : int array;
  mutable r_prev : int array;
  mutable r_src : int array;
  mutable r_next : int array;
  mutable free : int;
  mutable used : int;
  mutable head : int array;
  mutable tail : int array;
  mutable len : int array;
  mutable serving : int array;
}
(** Pool columns [r_*] are indexed by slot; [r_next] chains a queued
    slot to its FIFO successor and a free slot to the next free one
    ([-1] ends either), [free] is the first free slot and [used] the
    slots ever handed out (the pool's high-water mark).  Per-handle
    arrays are indexed [h / stride] and hold [cells] entries; [head]
    and [serving] are [-1] when empty; an actor is busy exactly while
    its [serving] slot is set. *)

val create : cap:int -> handles:int -> t
(** One store for handles [0 .. handles-1] ([stride] 1), each FIFO
    bounded at [cap] queued messages.  [create], {!push}, {!msg_index}
    and {!advance} are the probe API of the benchmark's mailbox
    microbench ([perfbench/src/probe.ml]); the engine builds
    {!create_strided} stores.
    @raise Invalid_argument if [cap <= 0]. *)

val create_strided : stride:int -> cap:int -> handles:int -> t
(** The store of one shard of [stride]: per-handle cells for the
    handles below [handles] whose index is [h mod stride].
    @raise Invalid_argument if [cap <= 0] or [stride <= 0]. *)

val ensure : t -> handles:int -> unit
(** Grow the per-handle cells so [handles-1] is addressable: to the
    larger of what is needed and the current size plus an eighth
    (geometric, so amortized O(1) per handle).  Queues and in-service
    slots are kept.  Barrier only: never call while
    shard windows are running. *)

val pool_capacity : t -> int
(** Slots the pool columns currently hold (doubling growth). *)

val approx_bytes : t -> int
(** Estimated resident bytes of the pool columns and per-handle arrays
    at their current size ([cap] does not enter: nothing is allocated
    per queue position). *)

val release : t -> int -> unit
(** Return a slot to the free list. *)

val length : t -> int -> int

val is_busy : t -> int -> bool
(** Is a message in service at the actor (its service-done event
    pending, or its dispatch running)? *)

val enqueue : t -> int -> int -> bool
(** [enqueue t h slot]: FIFO-append the message in pool slot [slot];
    [false] when [cap] messages are already queued (bounded
    backpressure: the newcomer is dropped, its slot stays the caller's
    to release). *)

val push :
  t -> int -> kind:int -> req:int -> oi:int -> level:int -> prev:int ->
  src:int -> bool
(** Write a message into a fresh slot and {!enqueue} it; [false] (and
    nothing allocated) when [cap] messages are queued. *)

val msg_index : t -> int -> int
(** Pool slot of handle [h]'s FIFO head ([-1] when empty).  Read the
    message fields directly, then {!advance}; [r_next] walks the rest
    of the queue. *)

val advance : t -> int -> unit
(** Drop handle [h]'s FIFO head and release its slot (after reading it
    via {!msg_index}).  Owner-shard only. *)

val take : t -> int -> bool
(** Unlink handle [h]'s FIFO head into its in-service index, where it
    stays while the actor serves it; the server releases the slot.
    With the FIFO empty, clear the in-service index (the actor goes
    idle) and return [false].  Owner-shard only. *)

val in_service : t -> int -> int
(** Pool slot of the message in service at handle [h], [-1] when the
    actor is idle.  A killed node's slot stays set until its
    service-done event. *)

val kill : t -> int -> unit
(** Node death: drop the queue, releasing its slots (account queued
    requests first — see the shard barrier's churn step).  A message in
    service keeps its slot until its service-done event. *)

(** The event queue of one shard: in-flight messages and engine events
    in one heap, keyed by (time, class, push sequence) — the stable
    tie-break replay depends on.  Engine events ({!schedule}) are class
    0 and messages ({!push}) class 1, so at equal times every engine
    event pops before every message, each class in push order.  An
    engine event carries a negative kind (below every Actor opcode) and
    a handle.  Payloads live in the shard mailbox's pool
    so a sift swap moves three words.  The heap also holds the shard's
    virtual clock, which {!pop_into} and {!lift} advance. *)
module Events : sig
  type q = {
    mb : t;  (** the shard's mailbox; its pool holds every payload *)
    mutable tt : float array;
    mutable ts : int array;
    mutable tp : int array;
    mutable tlen : int;
    mutable seq : int;
    clock : float array;
        (** [clock.(0)]: time of the last event popped or limit lifted
            to; a float array so that writing it allocates nothing *)
    mutable o_h : int;  (** filled by {!pop_into} *)
    mutable o_kind : int;
    mutable o_slot : int;
  }

  val create : t -> q
  (** An empty heap parking its payloads in the given mailbox's pool. *)

  val approx_bytes : q -> int
  (** Estimated resident bytes of the heap columns (the pool is the
      mailbox's, counted by its [approx_bytes]). *)

  val peek_time : q -> float
  (** Earliest event time, [infinity] when empty. *)

  val schedule : q -> time:float -> kind:int -> h:int -> unit
  (** Push an engine event. *)

  val push :
    q -> time:float -> h:int -> kind:int -> req:int -> oi:int -> level:int ->
    prev:int -> src:int -> unit
  (** Push an in-flight message. *)

  val pop_into : q -> bool
  (** Pop the earliest event into the [o_*] fields and raise the clock
      to its time; [false] when empty.  An engine event's slot goes
      back to the pool at once; a message's slot, [o_slot], is the
      caller's: it must {!enqueue} or {!release} it. *)

  val lift : q -> float -> unit
  (** Raise the clock to the given time if it is later. *)
end

(** Cross-shard sends buffered during a window; drained at the barrier
    in shard index order so target-side sequence assignment is
    independent of the domain count. *)
module Outbox : sig
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

  val create : unit -> ob

  val approx_bytes : ob -> int
  (** Estimated resident bytes of the log's columns. *)

  val push :
    ob -> time:float -> h:int -> kind:int -> req:int -> oi:int -> level:int ->
    prev:int -> src:int -> unit

  val clear : ob -> unit
end

(** A growable log of int rows of one fixed width, stored row by row in
    one array; growth doubles, so pushes after warm-up allocate nothing.
    The shard's barrier-replayed logs, the hint exchange's digit buckets
    and the driver's publish logs are all [Rows.t]. *)
module Rows : sig
  type t

  val create : width:int -> t
  (** @raise Invalid_argument if [width <= 0]. *)

  val length : t -> int

  val get : t -> int -> int -> int
  (** [get r i k]: column [k] of row [i]. *)

  (** [pushN] appends one row to a width-[N] log. *)

  val push1 : t -> int -> unit
  val push2 : t -> int -> int -> unit
  val push3 : t -> int -> int -> int -> unit
  val push4 : t -> int -> int -> int -> int -> unit

  val swap_remove : t -> int -> unit
  (** [swap_remove r i]: delete row [i], moving the last row into it. *)

  val clear : t -> unit
  (** Drop every row, keeping the storage. *)

  val mem2 : t -> int -> int -> bool
  (** [mem2 r x y]: does some row start with [x], [y]?  A linear scan. *)
end
