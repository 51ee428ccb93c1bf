(** Cross-module invariant checks and global-knowledge oracles (the audit,
    tests and experiments).

    The running mesh keeps no verification state: the oracles read a
    {!core} snapshot taken when they are asked.  The walks below run with
    charging rolled back, so they can be interleaved with measured
    operations without distorting accounting. *)

(** {2 The core snapshot} *)

type core
(** The alive core ([Active]/[Leaving]) IDs of a network, sorted by
    {!Node_id.compare}; immutable, so a mesh change needs a new one.  The
    IDs that share a prefix and then a digit are one run of it, between
    the bounds {!Node_id.extensions} gives, found by binary search
    (DESIGN.md §8.2). *)

val core : Network.t -> core
(** {!Network.core_nodes}, reversed: one sort of the alive core. *)

val extension : core -> Node_id.t -> level:int -> digit:int -> Node_id.t option
(** The largest core ID that shares the ID's first [level] digits and has
    [digit] at [level], if one does: the witness that a hole at (level,
    digit) breaks Property 1.  One O(log n) search. *)

val surrogate_oracle : Network.t -> core -> Node_id.t -> Node.t
(** The root {!Route.route_to_root} must find for a GUID: refine digit by
    digit with wrap-around among the snapshot's IDs (Theorem 2).  O(digits
    · log n).  @raise Invalid_argument on an empty snapshot. *)

(** {2 Whole-mesh checks} *)

val check_property1 : Network.t -> (Node.t * int * int) list
(** Violations of Property 1 (consistency): core nodes with an empty slot
    for which a matching core node exists.  Empty list = consistent. *)

val check_property2 : Network.t -> total:int ref -> optimal:int ref -> unit
(** Locality quality: over every non-empty slot of every core node whose
    (prefix, digit) some core node extends, counts the slots whose primary
    is no farther than the closest such node. *)

val true_nearest_neighbor : Network.t -> Node.t -> Node.t option
(** Brute-force closest other alive node (oracle for E3). *)

type pointer_gap = {
  guid : Node_id.t;
  server : Node_id.t;
  missing_at : Node_id.t;  (** publish-path node lacking the pointer *)
}

val check_property4 : Network.t -> pointer_gap list
(** Property 4: every node on the path from each replica server to the
    object's root holds a pointer for that (object, server) pair.  Paths are
    recomputed with current tables. *)

val roots_agree : Network.t -> Node_id.t -> samples:int -> bool
(** Theorem 2 empirically: routes toward a GUID from [samples] random
    sources all end at the same root (and at the oracle root). *)

val reachable_everywhere : Network.t -> Node_id.t -> bool
(** Does a locate for the GUID succeed from every alive node? *)

val availability : Network.t -> guids:Node_id.t list -> samples:int -> float
(** Fraction of (random client, guid) locate probes that succeed. *)
