(** Object publication (Section 2.2, Figure 2).

    A storage server announces a replica by routing a publish message toward
    each root in the object's root set; every node on the way — root
    included — deposits an object pointer [(guid, server)] recording the
    last hop, so later queries walking toward the root intersect the publish
    path (Theorem 1).  Pointers are soft state: they expire [pointer_ttl]
    after the publish unless refreshed by {!republish}. *)

type outcome = {
  roots : Node.t list;  (** surrogate root reached for each root index *)
  path_lengths : int list;  (** hops from server to each root *)
}

val publish :
  ?on_secondaries:bool ->
  Network.t ->
  server:Node.t ->
  Node_id.t ->
  outcome
(** Publish a replica of the GUID stored at [server].  The server is
    recorded as holding the replica.  With [on_secondaries] (the PRR-style
    deployment of Section 2.4), each hop also deposits the pointer on the
    secondary neighbors of the slot it traverses, at extra message cost. *)

val republish : Network.t -> server:Node.t -> Node_id.t -> outcome
(** Re-walk the publish paths, refreshing expiry and last-hop pointers.
    Identical mechanics to {!publish} minus the replica registration. *)

val place : Network.t -> servers:Node.t array -> Node_id.t array -> unit
(** Publish object [o] ([guids.(o)]) from [servers.(o)] for every [o],
    leaving the same replicas, pointer records (in each store's record
    order), expiries and message charges as calling {!publish} object by
    object.  Each (object, root) path is routed once, in that order,
    and its hops recorded in one flat buffer; every touched store is
    then sized once ({!Pointer_store.reserve}) from its deposit count,
    and the deposits replayed from the buffer.  Deferring the deposits
    changes no walk, since routing reads no pointer store.  The initial
    placement of the serve driver: its stores grow by one allocation
    each rather than by doubling.
    @raise Invalid_argument if the arrays differ in length. *)

val unpublish : Network.t -> server:Node.t -> Node_id.t -> unit
(** Delete this server's pointers along its current publish paths and drop
    the replica. *)
