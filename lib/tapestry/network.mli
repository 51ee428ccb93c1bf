(** The simulated Tapestry network: node directory, metric, cost accounting
    and the link-maintenance primitives shared by all protocol modules.

    Protocol modules ({!Route}, {!Publish}, {!Insert}, ...) act on this
    container but make decisions only from per-node state (routing tables and
    pointer stores), charging every simulated message to the ambient
    {!Simnet.Cost.t}.  Global views (the node directory, the dense alive
    array) are reserved for experiment setup, repair sweeps and the
    verification oracles, which live in {!Verify} and take their own
    snapshot of the core IDs when asked: the network holds only the
    running mesh.

    Hot-path bookkeeping is incremental: the alive set is a dense
    swap-remove array (O(1) sampling, O(alive) listing). *)

type t = {
  config : Config.t;
      (** normalized ({!Config.normalize}) copy of the config passed to
          {!create}: derived fields are always consistent *)
  metric : Simnet.Metric.t;
  nodes : Node.t Node_id.Tbl.t;
      (** the directory: every registered node, dead ones included *)
  mutable arena : Node.t array;
      (** append-only node arena: [arena.(h)] is the node whose immutable
          handle is [h] (assigned at {!register}, kept through death).
          The routing hot path resolves table entries through it in O(1)
          with no hashing. *)
  mutable arena_len : int;  (** number of live entries in [arena] *)
  names : Routing_table.names;
      (** the name column, in step with [arena]: [names.ids.(h)] is
          [arena.(h).id].  Routing tables store neighbours by handle and
          read their IDs here. *)
  mutable alive_arr : Node.t array;
      (** dense array of alive nodes; entries beyond [alive_len] are junk *)
  mutable alive_len : int;  (** number of live entries in [alive_arr] *)
  alive_slot : int Node_id.Tbl.t;  (** node id -> its slot in [alive_arr] *)
  salts : Node_id.t array Node_id.Tbl.t;
      (** memo for {!salted}: [Node_id.salt] allocates a fresh RNG per
          call, so the redundant-roots publish/locate path
          caches, per identifier, the row psi_1 .. psi_(R-1) *)
  scratch : Scratch.t;
      (** reusable generation-stamped buffers for the insertion hot path
          (nearest-neighbor descent, acknowledged multicast); see
          {!Scratch} and DESIGN.md §8.7 *)
  mutable rng : Simnet.Rng.t;
      (** mutable so a campaign runner can restore a {!Simnet.Rng.copy}
          snapshot when replaying on a reused mesh *)
  cost : Simnet.Cost.t;  (** ambient accumulator charged by protocol code *)
  mutable clock : float;  (** virtual time for soft-state expiry *)
  mutable obj_cache : Obj_cache.t option;
      (** the serve engine's per-node object-pointer caches (DESIGN.md §10),
          [None] by default.  The serve driver attaches its cache here
          so that {!clear_soft_state}, {!memory_footprint}, [Audit.run]
          and the sync [Publish.unpublish] (which retracts entries
          naming the unpublished server) see it; no sync locate path
          reads it *)
}

val create : ?seed:int -> Config.t -> Simnet.Metric.t -> t

val clear_soft_state : t -> unit
(** Drop all soft state — pointer stores, replica sets, the virtual
    clock, any attached object cache — while keeping routing tables
    and the metric.  Together with restoring an [rng] snapshot
    this lets a deterministic campaign replay on a reused mesh
    bit-identically to a fresh build (serve bench row reuse). *)

val dist : t -> Node.t -> Node.t -> float

val charge : t -> Node.t -> Node.t -> unit
(** One critical-path message between two nodes. *)

val charge_aside : t -> Node.t -> Node.t -> unit
(** One off-critical-path message (parallel fan-out). *)

val measure : t -> (unit -> 'a) -> 'a * Simnet.Cost.t
(** Run a thunk and return the cost it charged. *)

val without_charging : t -> (unit -> 'a) -> 'a
(** Run a thunk and roll back whatever it charged — for verification walks
    that must not distort experiment accounting. *)

val find : t -> Node_id.t -> Node.t option

val find_exn : t -> Node_id.t -> Node.t

val node_of_handle : t -> int -> Node.t
(** The node registered with arena handle [h], O(1) and allocation-free;
    dead nodes keep their handle (check {!Node.is_alive}).
    @raise Invalid_argument on an out-of-range handle. *)

val salted : t -> Node_id.t -> int -> Node_id.t
(** [salted t id i] is [Node_id.salt ~base id i], memoized per network.
    [i = 0] is the identity and bypasses the cache. *)

val register : t -> Node.t -> unit
(** Add a node to the directory, the arena and the alive array (it is not
    yet linked into anyone's routing table).
    @raise Invalid_argument on duplicate id, bad addr or a dead node. *)

val mark_dead : t -> Node.t -> unit
(** Flip status to [Dead] and drop from the alive array.  Routing-table cleanup is the protocols' business ({!Delete}). *)

val activate : t -> Node.t -> unit
(** [Inserting -> Active]: the node becomes core.  No-op on an
    already-[Active] node.
    @raise Invalid_argument on a [Leaving] or [Dead] node. *)

val begin_leaving : t -> Node.t -> unit
(** [Active -> Leaving]: announce voluntary departure.  Leaving nodes stay
    core (they serve in-flight traffic, Section 5.1).  @raise Invalid_argument unless the node is [Active]. *)

val alive_nodes : t -> Node.t list
(** All alive nodes, O(alive); order is the dense-array order (insertion
    order perturbed by swap-removes), not id order. *)

val iter_alive : t -> (Node.t -> unit) -> unit
(** Visit every alive node in dense-array order without materializing the
    list — the worklist-free form audits and sweeps use at 10^5+ nodes. *)

val iter_registered : t -> (Node.t -> unit) -> unit
(** Visit every registered node (alive or dead) in arena-handle order. *)

val core_nodes : t -> Node.t list
(** All core ([Active]/[Leaving]) alive nodes, by descending ID: one sort
    of the alive array's core nodes.  {!Delete.repair_all_holes} and
    {!Optimizer} walk them in this order, which their results depend on. *)

val node_count : t -> int
(** Number of alive nodes, O(1). *)

val random_alive : t -> Node.t
(** Uniform random alive node, O(1). @raise Invalid_argument if none. *)

val fresh_id : t -> Node_id.t
(** Random identifier not colliding with a registered node.  Fails with a
    diagnostic naming the namespace size after 1000 collisions. *)

(** {2 Link maintenance}

    These update both directions of a neighbor link and are the only way
    protocol code mutates routing tables, so backpointers never drift. *)

val offer_link : t -> owner:Node.t -> level:int -> candidate:Node.t -> bool
(** Offer [candidate] for [owner]'s table at [level] (Property 2
    maintenance).  Returns true if it was added.  No-op unless the IDs share
    at least [level] digits; [Leaving] and [Dead] candidates are refused
    (Section 5.1: departing nodes take no new links). *)

val offer_link_all_levels : t -> owner:Node.t -> candidate:Node.t -> int
(** Offer at every level the two IDs share; returns how many levels added. *)

val drop_link : t -> owner:Node.t -> target:Node_id.t -> int list
(** Remove [target] from [owner]'s table and fix backpointers; returns the
    levels it was found at. *)

val live_neighbours : t -> Node.t -> level:int -> Node.t list
(** The alive nodes in the node's slots at [level], itself excluded; each
    once, as an ID holds one cell per level.  In (digit, rank) order,
    which repair and maintenance results depend on. *)

(** {2 Resident-size accounting}

    Arithmetic estimates of heap residency by subsystem (word = 8 bytes;
    a [Node_id.t] is one immediate word, billed in the field or cell
    that holds it).  Not GC truth — a budget gauge for the scale tier and the audit
    footprint check; see DESIGN.md §8.8 for the model. *)

type footprint = {
  node_bytes : int;  (** node records and replica sets *)
  table_bytes : int;  (** packed routing tables + backpointer tables *)
  pointer_bytes : int;  (** per-node pointer stores *)
  directory_bytes : int;
      (** directory/alive tables, arena, name column, salt cache *)
  metric_bytes : int;  (** coordinates + spatial index (or matrix) *)
  scratch_bytes : int;  (** reusable insertion buffers *)
  total_bytes : int;
}

val memory_footprint : t -> footprint
(** O(n) sweep over the arena; allocation-light.
    Used by the scale tier's bytes-per-node gauge and {!Audit}'s
    O(n log n) footprint sanity check. *)
