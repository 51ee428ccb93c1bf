(** Message plumbing for the actor runtime: bounded per-node mailbox
    rings with one in-service slot per node, the per-shard event heap
    (in-flight messages and engine events), and the cross-shard outbox
    (DESIGN.md section 9).

    A message is six ints — [kind] (Actor opcode), [req] (global request
    id, [-1] for fire-and-forget), [oi] (object x root index into the
    driver's salted-guid table), [level] (walk level, packed with the
    root index for secondary chains), [prev] (previous publish hop's
    arena handle, [-1] at the server), [src] (origin server's handle).
    In-flight entries also carry the target handle and the
    target's mailbox generation captured at send time; a generation
    mismatch at delivery is a dead letter.

    All structures are struct-of-arrays read in place instead of
    through returned records, so steady-state operations allocate
    nothing; the record types are exposed transparently for exactly
    that field access.  Concurrency: rings are partitioned by
    [handle mod shard count] and only ever touched by the owning shard
    during a window; event heaps and outboxes are shard-private; growth
    and {!kill} happen only at barriers.  The shared mailbox arena
    deliberately has no out-param scratch — concurrent pops go through
    {!msg_index} + {!advance} so each shard reads only its own ring
    slots (a shared scratch field would be a cross-domain data race,
    and was: see DESIGN.md section 9.5). *)

type t = {
  cap : int;
  mutable handles : int;
  mutable r_kind : int array;
  mutable r_req : int array;
  mutable r_oi : int array;
  mutable r_level : int array;
  mutable r_prev : int array;
  mutable r_src : int array;
  mutable head : int array;
  mutable len : int array;
  mutable gen : int array;
  mutable busy : int array;
  mutable s_kind : int array;
  mutable s_req : int array;
  mutable s_oi : int array;
  mutable s_level : int array;
  mutable s_prev : int array;
  mutable s_src : int array;
}

val create : cap:int -> handles:int -> t
(** Rings of capacity [cap] for handles [0 .. handles-1].
    @raise Invalid_argument if [cap <= 0]. *)

val ensure : t -> handles:int -> unit
(** Grow so [handles-1] is addressable: to the larger of [handles] and
    the current size plus an eighth (geometric, so amortized O(1) per
    handle).  Ring contents and generations are kept.  Barrier only:
    never call while shard windows are running. *)

val capacity : t -> int

val approx_bytes : t -> int
(** Estimated resident bytes of the rings and per-handle arrays at their
    current size (the per-shard event heaps are not counted). *)

val generation : t -> int -> int
(** Current generation stamp of a handle's mailbox. *)

val length : t -> int -> int

val is_busy : t -> int -> bool
(** Is the actor draining: a drain-start or service-done event
    pending, or its drain running? *)

val set_busy : t -> int -> bool -> unit

val push :
  t -> int -> kind:int -> req:int -> oi:int -> level:int -> prev:int ->
  src:int -> bool
(** FIFO append; [false] when the ring is full (bounded backpressure:
    the newcomer is dropped and the caller accounts it). *)

val msg_index : t -> int -> int
(** Flat index of handle [h]'s FIFO head in the [r_*] rings (only
    meaningful while [length t h > 0]).  Read the message fields
    directly, then {!advance} — pops never touch shared scratch. *)

val advance : t -> int -> unit
(** Consume handle [h]'s FIFO head (after reading it via {!msg_index}).
    Owner-shard only. *)

val take : t -> int -> unit
(** Pop handle [h]'s FIFO head into its in-service slot ([s_*.(h)]),
    where it stays while the actor serves it.  Owner-shard only. *)

val kill : t -> int -> unit
(** Node death: clear the ring, reset busy, bump the generation (drain
    any queued requests first — see the shard barrier's churn step). *)

(** The event queue of one shard: in-flight messages and engine events
    in one heap, keyed by (time, class, push sequence) — the stable
    tie-break replay depends on.  Engine events ({!schedule}) are class
    0 and messages ({!push}) class 1, so at equal times every engine
    event pops before every message, each class in push order.  An
    engine event carries a negative kind (below every Actor opcode), a
    handle and a generation.  Payloads live in a free-listed pool so a
    sift swap moves three words.  The heap also holds the shard's
    virtual clock, which {!pop_into} and {!lift} advance. *)
module Events : sig
  type q = {
    mutable tt : float array;
    mutable ts : int array;
    mutable tp : int array;
    mutable tlen : int;
    mutable seq : int;
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
    clock : float array;
        (** [clock.(0)]: time of the last event popped or limit lifted
            to; a float array so that writing it allocates nothing *)
    mutable o_h : int;  (** filled by {!pop_into} *)
    mutable o_g : int;
    mutable o_kind : int;
    mutable o_req : int;
    mutable o_oi : int;
    mutable o_level : int;
    mutable o_prev : int;
    mutable o_src : int;
  }

  val create : unit -> q

  val peek_time : q -> float
  (** Earliest event time, [infinity] when empty. *)

  val schedule : q -> time:float -> kind:int -> h:int -> g:int -> unit
  (** Push an engine event. *)

  val push :
    q -> time:float -> h:int -> g:int -> kind:int -> req:int -> oi:int ->
    level:int -> prev:int -> src:int -> unit
  (** Push an in-flight message. *)

  val pop_into : q -> bool
  (** Pop the earliest event into the [o_*] fields and raise the clock
      to its time; [false] when empty.  An engine event leaves
      [o_req .. o_src] meaningless. *)

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
    mutable b_g : int array;
    mutable b_kind : int array;
    mutable b_req : int array;
    mutable b_oi : int array;
    mutable b_level : int array;
    mutable b_prev : int array;
    mutable b_src : int array;
    mutable blen : int;
  }

  val create : unit -> ob

  val push :
    ob -> time:float -> h:int -> g:int -> kind:int -> req:int -> oi:int ->
    level:int -> prev:int -> src:int -> unit

  val clear : ob -> unit
end
