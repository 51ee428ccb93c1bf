(** Pastry (Rowstron & Druschel, Middleware 2001) — the Table 1 row
    "loosely based on the PRR scheme".

    Prefix routing over the same digit identifiers as Tapestry, plus a
    {e leaf set} of the numerically closest nodes that gives deterministic
    convergence.  The overlay construction is proximity-aware (each table
    slot prefers the closest known candidate), but object location is
    DHT-style — the object lives at the numerically closest node to its key
    and queries route all the way there — so, as the paper notes, Pastry
    "does not provide the same stretch as the PRR scheme in object
    location".  That contrast is exactly what E2/E13 measure. *)

type node

type t

val create : ?seed:int -> ?leaf_set:int -> Tapestry.Config.t -> Simnet.Metric.t -> t
(** Digit parameters come from the Tapestry config ([base], [id_digits]);
    [leaf_set] is the total leaf-set size (default 8, half per side). *)

val cost : t -> Simnet.Cost.acc

val bootstrap : t -> addr:int -> node

val join : t -> gateway:node -> addr:int -> node
(** Pastry join: route toward the new ID, seed routing-table rows from the
    nodes met on the path, adopt the numerically closest node's leaf set,
    then announce to everyone learned. *)

val nodes : t -> node list

val random_node : t -> node

val node_id : node -> Tapestry.Node_id.t

val node_addr : node -> int

val route : t -> from:node -> Tapestry.Node_id.t -> node * int
(** Route to the live node numerically closest to the key; returns it and
    the hop count, charging costs along the way. *)

val publish : t -> server:node -> Tapestry.Node_id.t -> unit
(** Store an object pointer at the key's numeric root. *)

val locate : t -> from:node -> Tapestry.Node_id.t -> node option
(** Route to the root, follow the pointer to the server (charging the
    forward hop). *)

val table_size : node -> int

val check_routes_converge : t -> samples:int -> bool
(** Every sampled key routes to the same node from every source. *)
