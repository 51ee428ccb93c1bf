(** Chord (Stoica et al., SIGCOMM 2001) — the locality-oblivious DHT row of
    Table 1.

    A full implementation: an [2^m]-key ring with successor lists, finger
    tables, recursive lookups, dynamic join (O(log^2 n) messages) and
    periodic stabilization.  Object pointers live at the key's successor.
    Lookup hops are O(log n) but each hop is an arbitrary metric-space jump,
    which is exactly why Chord's stretch grows when the target is nearby —
    the comparison the paper's Table 1 and introduction draw. *)

type node

type t

val create : ?seed:int -> m:int -> succ_list:int -> Simnet.Metric.t -> t
(** Ring modulo [2^m] ([m <= 30]); each node keeps [succ_list] successors. *)

val cost : t -> Simnet.Cost.acc

val bootstrap : t -> addr:int -> node
(** First node of the ring. *)

val join : t -> gateway:node -> addr:int -> node
(** Dynamic join through [gateway]: lookup the key's successor, splice into
    the ring, initialize fingers by lookups, then notify. *)

val stabilize_all : t -> rounds:int -> unit
(** Run the periodic stabilization + fix-fingers protocol on every node. *)

val node_key : node -> int

val node_addr : node -> int

val nodes : t -> node list

val random_node : t -> node

val lookup : t -> from:node -> int -> node * int
(** Recursive lookup: route to the successor of a key; returns it and the
    hop count, charging message costs along the way. *)

val publish : t -> server:node -> guid_key:int -> unit
(** Store an object pointer for [guid_key] at its successor. *)

val locate : t -> from:node -> guid_key:int -> node option
(** Route to the key's successor and follow its pointer; returns the server.
    Charges the lookup path plus the successor-to-server forward. *)

val table_size : node -> int
(** Fingers + successors + predecessor entries (space accounting). *)

val check_ring : t -> bool
(** Every node's successor chain covers the whole ring (test oracle). *)
