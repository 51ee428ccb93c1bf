(** Acknowledged multicast (Section 4.1, Figures 8 and 11).

    Reaches every node whose ID starts with a given prefix: each recipient
    forwards to one node per one-digit extension of the prefix (one of which
    is itself, at a deeper level), applies the payload function when it can
    forward no further, and acknowledges its parent once all children have
    acknowledged.  In a consistent network (Property 1) the messages form a
    spanning tree of the prefix set (Theorem 5), so reaching [k] nodes costs
    [k - 1] inter-node messages.

    The watch-list variant of Figure 11 additionally carries the inserting
    node's empty-slot bitmap so that concurrent insertions filling different
    holes discover each other (Lemma 6); discovered fillers are reported to
    the [on_watch_hit] callback. *)

type result = {
  reached : Node.t list;  (** every node with the prefix, each exactly once *)
  tree_edges : int;  (** inter-node multicast messages sent *)
}

val run :
  ?on_watch_hit:(level:int -> digit:int -> Node.t -> unit) ->
  ?watchlist:bool array array ->
  Network.t ->
  start:Node.t ->
  prefix:int array ->
  len:int ->
  apply:(Node.t -> unit) ->
  result
(** [run net ~start ~prefix ~len ~apply] multicasts from [start] (which must
    carry the prefix) to all nodes sharing [prefix[0..len)].  [apply] runs
    once per reached node.  When [watchlist] is given ([watchlist.(l).(d)]
    true = slot still empty at the inserting node), every recipient able to
    fill a watched hole triggers [on_watch_hit] and the slot is marked found.

    The descent runs on the network's {!Scratch} buffers: visited marking is
    a generation stamp over arena handles, per-digit target sets are
    snapshotted as segments of one shared handle stack, and the prefix lives
    in a single mutable buffer — no per-edge allocation.  Each tree edge's
    acknowledgment is charged as that edge's subtree completes, so cost
    snapshots taken between interleaved staged insertions attribute every
    ack to the insertion that caused it (totals are unchanged).

    @raise Invalid_argument if [start] does not carry the prefix. *)
