(** The simulated Tapestry network: node directory, metric, cost accounting
    and the link-maintenance primitives shared by all protocol modules.

    Protocol modules ({!Route}, {!Publish}, {!Insert}, ...) act on this
    container but make decisions only from per-node state (routing tables and
    pointer stores), charging every simulated message to the ambient
    {!Simnet.Cost.t}.  Global views (the node directory, the trie indices,
    the dense alive array) are reserved for verification oracles, experiment
    setup and the invariant checkers at the bottom of this interface.

    Hot-path bookkeeping is incremental: the alive set is a dense
    swap-remove array (O(1) sampling, O(alive) listing) and the core trie
    [core_index] is maintained on every status transition, so
    {!surrogate_oracle} and the property checkers never rebuild it. *)

(** @closed *)
module Salt_tbl : Hashtbl.S with type key = Node_id.t * int

type t = {
  config : Config.t;
      (** normalized ({!Config.normalize}) copy of the config passed to
          {!create}: derived fields are always consistent *)
  metric : Simnet.Metric.t;
  nodes : Node.t Node_id.Tbl.t;
  index : Id_index.t;  (** oracle: trie over ids of nodes that are not Dead *)
  core_index : Id_index.t;
      (** oracle: trie over core ([Active]/[Leaving]) ids, maintained
          incrementally by {!register}, {!activate} and {!mark_dead} *)
  mutable arena : Node.t array;
      (** append-only node arena: [arena.(h)] is the node whose immutable
          handle is [h] (assigned at {!register}, kept through death).
          The routing hot path resolves table entries through it in O(1)
          with no hashing. *)
  mutable arena_len : int;  (** number of live entries in [arena] *)
  mutable alive_arr : Node.t array;
      (** dense array of alive nodes; entries beyond [alive_len] are junk *)
  mutable alive_len : int;  (** number of live entries in [alive_arr] *)
  alive_slot : int Node_id.Tbl.t;  (** node id -> its slot in [alive_arr] *)
  salts : Node_id.t Salt_tbl.t;
      (** memo for {!salted}: [Node_id.salt] allocates a fresh RNG and
          digit array per call, so the redundant-roots publish/locate path
          caches psi_i per [(id, i)] *)
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
      (** opt-in per-node object-pointer caches (PR 9): [None] (the
          default) leaves every locate path byte-identical to the
          uncached code; attach with {!Obj_cache.create} sized to
          [arena_len] to let {!Locate} probe and fill *)
}

val create : ?seed:int -> Config.t -> Simnet.Metric.t -> t

val clear_soft_state : t -> unit
(** Drop all soft state — pointer stores, replica sets, the virtual
    clock, any attached object cache — while keeping routing tables,
    indices and the metric.  Together with restoring an [rng] snapshot
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
(** Add a node to the directory, the oracle indices and the alive array (it
    is not yet linked into anyone's routing table).  If the node is already
    core ([Active]) it also enters [core_index].
    @raise Invalid_argument on duplicate id, bad addr or a dead node. *)

val mark_dead : t -> Node.t -> unit
(** Flip status to [Dead] and drop from the oracle indices and the alive
    array.  Routing-table cleanup is the protocols' business ({!Delete}). *)

val activate : t -> Node.t -> unit
(** [Inserting -> Active]: the node becomes core and (if registered) enters
    [core_index].  No-op on an already-[Active] node.
    @raise Invalid_argument on a [Leaving] or [Dead] node. *)

val begin_leaving : t -> Node.t -> unit
(** [Active -> Leaving]: announce voluntary departure.  Leaving nodes stay
    core (they serve in-flight traffic, Section 5.1), so [core_index] is
    untouched.  @raise Invalid_argument unless the node is [Active]. *)

val alive_nodes : t -> Node.t list
(** All alive nodes, O(alive); order is the dense-array order (insertion
    order perturbed by swap-removes), not id order. *)

val iter_alive : t -> (Node.t -> unit) -> unit
(** Visit every alive node in dense-array order without materializing the
    list — the worklist-free form audits and sweeps use at 10^5+ nodes. *)

val iter_registered : t -> (Node.t -> unit) -> unit
(** Visit every registered node (alive or dead) in arena-handle order. *)

val core_nodes : t -> Node.t list
(** All core ([Active]/[Leaving]) nodes, in id (trie) order. *)

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
    once, as an ID holds one cell per level.  In [Node_id.hash]-bucket
    order, which repair and maintenance results depend on. *)

(** {2 Verification oracles (tests and experiments only)} *)

val check_property1 : t -> (Node.t * int * int) list
(** Violations of Property 1 (consistency): core nodes with an empty slot
    for which a matching core node exists.  Empty list = consistent. *)

val check_property2 : t -> total:int ref -> optimal:int ref -> unit
(** Locality quality: over every non-empty slot of every core node, counts
    slots whose primary is the true closest matching node. *)

val true_nearest_neighbor : t -> Node.t -> Node.t option
(** Brute-force closest other alive node (oracle for E3). *)

(** {2 Resident-size accounting}

    Arithmetic estimates of heap residency by subsystem (word = 8 bytes;
    shared [Node_id.t] values are counted once, with the node that owns
    them).  Not GC truth — a budget gauge for the scale tier and the audit
    footprint check; see DESIGN.md §8.8 for the model. *)

type footprint = {
  node_bytes : int;  (** node records, ids, replica sets *)
  table_bytes : int;  (** packed routing tables + backpointer tables *)
  pointer_bytes : int;  (** per-node pointer stores *)
  directory_bytes : int;  (** directory/alive tables, arena, salt cache *)
  index_bytes : int;  (** the two id tries *)
  metric_bytes : int;  (** coordinates + spatial index (or matrix) *)
  scratch_bytes : int;  (** reusable insertion buffers *)
  total_bytes : int;
}

val memory_footprint : t -> footprint
(** O(n) sweep over the arena plus an O(trie) walk; allocation-light.
    Used by the scale tier's bytes-per-node gauge and {!Audit}'s
    O(n log n) footprint sanity check. *)

val surrogate_oracle : t -> Node_id.t -> Node.t
(** The root {!Route.route_to_root} must find, computed from global
    knowledge: successively refine by digit with wrap-around among core
    nodes.  Answered from the incremental [core_index] — no rebuild.
    Mirrors Tapestry-native surrogate semantics. *)
