(** Dynamic node insertion (Section 4, Figure 7).

    A joining node contacts a gateway, routes to its surrogate (the existing
    node whose ID is closest to its own), copies a preliminary routing table,
    then acknowledged-multicasts over the longest shared prefix so that every
    node whose table gains a mandatory entry — the hole the new node fills —
    learns of it and re-roots the object pointers whose surrogate paths now
    pass through the new node ([LinkAndXferRoot]).  Finally the
    nearest-neighbor algorithm of Section 3 optimizes the whole table.

    After the multicast completes the node satisfies Property 1 (it is a
    {e core node}, Definition 1); the nearest-neighbor pass only improves
    locality (Property 2).  The multicast carries the watch list of
    Figure 11 so simultaneous insertions filling sibling holes discover each
    other (Theorem 6).

    The three stages are exposed separately so concurrency experiments can
    interleave insertions at stage boundaries on a virtual-time event heap
    ({!push_staged}); {!insert} runs them back to back. *)

type report = {
  node : Node.t;
  surrogate : Node.t;
  shared_prefix : int;  (** |alpha|: digits shared with the surrogate *)
  multicast_reached : int;  (** alpha-nodes notified by the multicast *)
  pointers_transferred : int;  (** object pointer records re-rooted *)
  nn_trace : Nearest_neighbor.trace;
  cost : Simnet.Cost.t;  (** total cost charged by this insertion *)
}

type staged
(** An insertion in progress (the node is registered and [Inserting]). *)

val stage_surrogate :
  ?id:Node_id.t -> ?adaptive:bool -> Network.t -> gateway:Node.t -> addr:int -> staged
(** Figure 7 steps 1–3: register the joining node, find its surrogate
    through the gateway, copy the preliminary table. *)

val stage_multicast : Network.t -> staged -> unit
(** Figure 7 step 4: acknowledged multicast over alpha running
    [LinkAndXferRoot] with the Figure 11 watch list.  After this the node is
    a core node in the sense of Definition 1. *)

val stage_acquire : Network.t -> staged -> report
(** Figure 7 step 5: the Section 3 neighbor-table acquisition, the Property-1
    backfill, and activation. *)

val staged_node : staged -> Node.t

val push_staged :
  (float, float -> unit) Simnet.Heap.t ->
  Network.t ->
  addr:int ->
  delays:float * float * float ->
  unit
(** Queue one staged insertion on a timeline run by {!Simnet.Heap.drain}:
    with [delays = (d0, d1, d2)], {!stage_surrogate} runs at virtual time
    [d0] through a random alive gateway, {!stage_multicast} [d1] later and
    {!stage_acquire} [d2] after that; the report is dropped.
    Insertions queued on one heap interleave at stage boundaries
    (Section 4.4, Theorem 6). *)

val insert :
  ?id:Node_id.t -> ?adaptive:bool -> Network.t -> gateway:Node.t -> addr:int -> report
(** The full insertion, all three stages.
    @raise Invalid_argument if the id collides or the gateway is dead. *)

val build_incremental :
  ?seed:int -> Config.t -> Simnet.Metric.t -> addrs:int list -> Network.t * report list
(** Convenience: create a network and insert a node at each point of
    [addrs] in order, each joining through a random existing node (the first
    becomes the bootstrap).  This is the paper's end-to-end construction:
    the final state should match a statically built network.  Successive
    insertions reuse the network's {!Scratch} buffers, so a bulk build does
    not reallocate per join. *)
