(** A Tapestry participant: identifier, network location, routing table,
    object pointers and the replicas it serves. *)

type status =
  | Inserting  (** mid-join: reachable by those who learned of it, may bounce queries (Section 4.3) *)
  | Active
  | Leaving  (** announced a voluntary delete; still routes queries (Section 5.1) *)
  | Dead  (** failed or departed *)

type t = {
  id : Node_id.t;
  addr : int;  (** index of this node's point in the metric space *)
  mutable handle : int;
      (** index into the owning {!Network.t}'s node arena, assigned once at
          registration and immutable afterwards ([no_handle] before).
          Routing resolves neighbor entries through it in O(1) with no
          hashing. *)
  table : Routing_table.t;
  pointers : Pointer_store.t;
  replicas : unit Node_id.Tbl.t;  (** GUIDs whose data this node stores *)
  mutable status : status;
  mutable surrogate_hint : int;
      (** while inserting: the arena handle of the pre-insertion surrogate
          used to keep objects available (Figure 10); [no_handle] when
          unset *)
}

val no_handle : int
(** Sentinel handle ([-1]) of a node not (yet) registered in a network. *)

val create : Config.t -> id:Node_id.t -> addr:int -> t

val is_alive : t -> bool
(** Participates in routing: [Inserting], [Active] or [Leaving]. *)

val is_core : t -> bool
(** Finished inserting (Definition 1 approximation): [Active] or [Leaving]. *)

val stores_replica : t -> Node_id.t -> bool

val add_replica : t -> Node_id.t -> unit

val remove_replica : t -> Node_id.t -> unit

val pp : Format.formatter -> t -> unit
