(** Node departure (Section 5).

    Voluntary delete (Figure 12) is the graceful two-phase exit: the leaver
    notifies every backpointer holder with replacement candidates, those
    nodes re-route the object pointers that passed through it, the leaver
    re-roots the objects it was root for, and only then does it disconnect —
    so objects stay available throughout.

    Involuntary delete is the common case: a node just disappears.  Repair
    is lazy (Section 5.2) — a neighbor that notices the failure fixes only
    its own state: drop the link, promote a secondary, search for a
    replacement if a hole opened (neighbor-local search first, then a
    routed probe), and re-push object pointers that travelled through the
    dead node.  Soft-state republish remains the backstop for objects whose
    root died. *)

type stats = {
  notified : int;  (** backpointer holders contacted *)
  pointers_rerouted : int;  (** object pointer records moved *)
  objects_rerooted : int;  (** records whose root was the leaver *)
}

val voluntary : Network.t -> Node.t -> stats
(** Graceful departure.  Replicas stored on the leaving node are
    unpublished (the data leaves with the node).
    @raise Invalid_argument if the node is not active. *)

val fail : Network.t -> Node.t -> unit
(** Involuntary: the node silently dies.  No state elsewhere is touched;
    repair happens lazily via {!on_dead_repair} and republish. *)

val on_dead_repair : Network.t -> owner:Node.t -> dead:Node_id.t -> unit
(** Rich [on_dead] handler for {!Route}: drop the link, repair any hole it
    opened, and re-optimize this node's object pointers. *)

val dead_neighbours : Network.t -> Node.t -> Node.t list
(** The distinct dead nodes in the node's table, in the order a walk by
    level, digit and rank first meets them. *)

val repair_owner : Network.t -> Node.t -> int
(** Lazy repair at one node: {!on_dead_repair} for each of its
    {!dead_neighbours} in that order; returns how many there were (0 for
    a dead owner, which is left alone).  The serve engine's repair
    barrier and the heartbeat sweep of experiment E16 both run it. *)

val repair_hole : Network.t -> owner:Node.t -> level:int -> digit:int -> bool
(** Find a replacement for an empty slot: ask the remaining level-[level]
    neighbors for their matching entries, then fall back to a routed
    surrogate probe.  Returns true if the slot is filled afterwards (false
    certifies no matching node exists). *)

val repair_all_holes : Network.t -> int
(** Anti-entropy sweep: run {!repair_hole} on every hole of every core node
    (the paper's optional proactive alternative to purely lazy repair).
    Returns the number of slots filled. *)
