(** Message plumbing for the actor runtime: bounded per-node mailbox
    rings with one in-service slot per node, the per-shard in-flight
    transport heap, the per-shard engine timer heap, and the
    cross-shard outbox (DESIGN.md section 9).

    A message is six ints — [kind] (Actor opcode), [req] (global request
    id, [-1] for fire-and-forget), [oi] (object x root index into the
    driver's salted-guid table), [level] (walk level, packed with the
    root index for secondary chains), [prev] (previous publish hop's
    arena handle, [-1] at the server), [src] (origin server's handle).
    Transport/outbox entries also carry the target handle and the
    target's mailbox generation captured at send time; a generation
    mismatch at delivery is a dead letter.

    All structures are struct-of-arrays read in place instead of
    through returned records, so steady-state operations allocate
    nothing; the record types are exposed transparently for exactly
    that field access.  Concurrency: rings are partitioned by
    [handle mod shard count] and only ever touched by the owning shard
    during a window; transports and outboxes are shard-private; growth
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
(** Grow (amortized doubling) so [handles-1] is addressable.  Barrier
    only: never call while shard windows are running. *)

val capacity : t -> int

val generation : t -> int -> int
(** Current generation stamp of a handle's mailbox. *)

val length : t -> int -> int

val is_busy : t -> int -> bool
(** Is the actor draining: a drain-start or service-done timer event
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

(** Per-shard heap of in-flight messages keyed by (delivery time, send
    sequence) — the stable tie-break replay depends on.  Payloads live
    in a free-listed pool so a sift swap moves three words. *)
module Transport : sig
  type tr = {
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
    mutable o_time : float;  (** filled by {!pop_into} *)
    mutable o_h : int;
    mutable o_g : int;
    mutable o_kind : int;
    mutable o_req : int;
    mutable o_oi : int;
    mutable o_level : int;
    mutable o_prev : int;
    mutable o_src : int;
  }

  val create : unit -> tr

  val length : tr -> int

  val peek_time : tr -> float
  (** Earliest delivery time, [infinity] when empty. *)

  val push :
    tr -> time:float -> h:int -> g:int -> kind:int -> req:int -> oi:int ->
    level:int -> prev:int -> src:int -> unit

  val pop_into : tr -> bool
  (** Pop the earliest message into the [o_*] fields. *)
end

(** Per-shard heap of engine events keyed by (virtual time, push
    sequence), popped in the order a generic stable heap would pop
    them.  An event is (kind, handle, generation); the heap also holds
    the shard's virtual clock, which [pop_into] and [lift] advance. *)
module Timer : sig
  type tm = {
    mutable et : float array;
    mutable es : int array;
    mutable ek : int array;
    mutable eh : int array;
    mutable eg : int array;
    mutable elen : int;
    mutable seq : int;
    mutable clock : float;  (** virtual time of the last event run *)
    mutable o_kind : int;  (** filled by {!pop_into} *)
    mutable o_h : int;
    mutable o_g : int;
  }

  val create : unit -> tm

  val length : tm -> int

  val peek_time : tm -> float
  (** Earliest event time, [infinity] when empty. *)

  val push : tm -> time:float -> kind:int -> h:int -> g:int -> unit

  val pop_into : tm -> bool
  (** Pop the earliest event into the [o_*] fields and raise [clock] to
      its time; [false] when empty. *)

  val lift : tm -> float -> unit
  (** Raise [clock] to the given time if it is later. *)
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

  val length : ob -> int

  val push :
    ob -> time:float -> h:int -> g:int -> kind:int -> req:int -> oi:int ->
    level:int -> prev:int -> src:int -> unit

  val clear : ob -> unit

  val flush_into : ob -> Transport.tr -> floor:float -> unit
  (** Push every buffered entry into a transport, raising delivery times
      below [floor] (the barrier) to [floor]: a cross-shard message may
      not land inside a window the target already executed. *)
end
