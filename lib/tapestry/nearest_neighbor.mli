(** The distributed nearest-neighbor algorithm of Section 3 (Figure 4).

    Given the joining node's surrogate, the algorithm walks level lists
    downward: starting from all nodes sharing the longest existing prefix
    alpha (obtained by acknowledged multicast), the level-i list is derived
    from the level-(i+1) list by collecting every level-i node the current
    list knows through forward and backward pointers, then trimming to the
    k closest (Lemma 1).  Each level list fills the corresponding routing
    table level (Lemma 2), every contacted node checks whether the joining
    node improves its own table (Theorem 4), and the final level-0 list's
    closest member is the new node's nearest neighbor.

    [fill_holes] is the deterministic backstop for the with-high-probability
    guarantee of Lemma 2: any slot left empty is resolved by surrogate
    routing, which either finds a matching node or certifies the hole, so
    Property 1 holds unconditionally after a join.

    The descent runs on the network's {!Scratch} buffers (DESIGN.md §8.7):
    candidate sets are deduplicated by generation stamps over arena handles,
    distances to the joiner are memoized per handle across the whole
    descent, and the k-closest trim is an in-place bounded heap — no
    hashtable, no keyed-list sort, no per-level allocation.  Every node
    passed in ([initial_list], the [get_next_list] list) must be registered,
    i.e. carry an arena handle. *)

type trace = {
  levels_walked : int;  (** list-descent steps executed *)
  nodes_contacted : int;  (** distinct nodes asked for pointers *)
  tables_updated : int;  (** existing nodes that adopted the new node *)
  holes_backfilled : int;  (** slots the fallback probe had to fill *)
}

val acquire_neighbor_table :
  ?adaptive:bool ->
  Network.t ->
  new_node:Node.t ->
  surrogate:Node.t ->
  initial_list:Node.t list ->
  trace
(** Figure 4's [AcquireNeighborTable].  [initial_list] is the set of
    alpha-prefix nodes the insertion multicast reached (the paper reuses the
    multicast to seed the first list); pass the surrogate alone when driving
    the algorithm standalone.

    [adaptive] enables the dynamic-k variant the paper cites for spaces with
    large expansion constants (Section 6.2): the descent restarts with
    doubled list width until the nearest-neighbor answer stabilizes. *)

val nearest_neighbor : Network.t -> from:Node.t -> Node.t option
(** Answer a nearest-neighbor query for an already-inserted node using the
    mesh (Property 2's static solution: the closest entry among the level-0
    slots after a table acquisition). *)

val get_next_list :
  ?update_tables:bool ->
  Network.t -> new_node:Node.t -> level:int -> Node.t list -> k:int -> Node.t list
(** One descent step ([GetNextList]): from the level-(level+1) list, collect
    forward+backward pointers at [level], let every contacted node consider
    the new node, and keep the [k] closest level-[level] nodes.  Exposed for
    tests and the E3 experiment.  Precondition: every list element is
    registered ({!Network.register}), so it carries an arena handle. *)
