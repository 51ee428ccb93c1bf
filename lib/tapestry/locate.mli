(** Object location (Section 2.2, Figure 3).

    A query routes from the client toward a root of the GUID along primary
    neighbor links, stopping at the first node holding an object pointer;
    it then routes through the mesh to the replica server closest to that
    node.  If the walk reaches the root without finding a pointer, the
    object does not exist — unless the root is mid-insertion, in which case
    the query is bounced to the pre-insertion surrogate and retried with the
    new node masked out (Figure 10). *)

type result = {
  server : Node.t option;  (** located replica server, if any *)
  pointer_node : Node.t option;  (** node whose pointer satisfied the query *)
  walk : Node.t list;  (** nodes visited on the way toward the root *)
  redirects : int;  (** Figure 10 insertion bounces taken *)
}

val usable : Network.t -> Node_id.t -> Pointer_store.cols -> int -> bool
(** [usable net guid c i]: the pointer at index [i] of the columns [c] is
    unexpired and its server is alive and still holds a replica of
    [guid].  Partially applied to [net] and [guid], it is the predicate
    {!Pointer_store.exists_guid_match} takes. *)

val closest_usable_server : Network.t -> Node.t -> Node_id.t -> Node.t option
(** The closest server, by distance from the given node, among the node's
    {!usable} pointers for the GUID; the newest record wins distance
    ties.  [None] when no pointer there is usable. *)

val locate :
  ?variant:Route.variant ->
  ?root_idx:int ->
  Network.t ->
  client:Node.t ->
  Node_id.t ->
  result
(** Locate a replica of the GUID starting from [client].  [root_idx] selects
    the root-set member to route toward (default: random, as the paper
    prescribes at query start). *)

val exists : Network.t -> client:Node.t -> Node_id.t -> bool
(** Convenience: does a locate from [client] find a live replica? *)
