(** Object pointer maintenance (Section 4.2, Figure 9) and soft state.

    When the routing mesh changes the expected root path of an object —
    a closer primary neighbor appears, a node leaves — the node whose
    forward route changed pushes the pointer up the new path; the node where
    new and old paths converge sends a delete back down the old branch,
    following the last-hop ("previous") pointers each record carries.  This
    keeps Property 4 without the dangling pointers an ordinary republish
    would leave.

    Soft state: {!expire_all} drops stale pointers, {!republish_all}
    refreshes every replica's paths — together they implement the paper's
    timeout/republish safety net that makes all maintenance advisory. *)

val optimize_object_ptrs :
  ?variant:Route.variant -> Network.t -> changed:Node.t -> Pointer_store.record -> unit
(** The forward route for this record changed at [changed]: re-walk the path
    toward the record's root from [changed], depositing/refreshing pointers,
    and prune the superseded branch backward from the convergence node
    (Figure 9's [OptimizeObjectPtrs] + [DeletePointersBackward]). *)

val repoint : Network.t -> Node.t -> int
(** {!optimize_object_ptrs} for every record at the node, after its
    routing table changed; returns how many.  Cheap when nothing moved:
    each walk converges at the first hop. *)

val delete_pointers_backward :
  Network.t ->
  changed:Node_id.t ->
  guid:Node_id.t ->
  server:Node_id.t ->
  root_idx:int ->
  from:Node_id.t ->
  unit
(** Walk last-hop pointers from [from] toward [changed], deleting the record
    at every node strictly before [changed]. *)

val optimize_through :
  ?variant:Route.variant -> Network.t -> node:Node.t -> next_hop:Node_id.t -> int
(** Run {!optimize_object_ptrs} for every record at [node] whose current
    first hop is [next_hop] (used after a slot's primary changes: only paths
    through the changed entry moved).  Returns how many records moved. *)

val expire_all : Network.t -> int
(** Drop expired pointers network-wide; returns the count. *)

val republish_all : Network.t -> int
(** Every alive server republishes every replica it stores; returns the
    number of (server, object) publishes performed. *)

val tick : Network.t -> dt:float -> unit
(** Advance the virtual clock, expiring pointers and republishing when a
    republish interval boundary is crossed. *)
