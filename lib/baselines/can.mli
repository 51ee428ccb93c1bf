(** CAN — Content-Addressable Network (Ratnasamy et al., SIGCOMM 2001), the
    Table 1 row with O(d n^{1/d}) routing.

    Nodes own zones of a d-dimensional unit torus; a joining node splits the
    zone owning a random point; objects hash to points and live with the
    zone owner; routing is greedy through zone neighbors.  Like Chord it is
    stretch-oblivious: hops are between random metric-space locations.
    Zone merge on departure is not implemented (not needed for any Table 1
    column we measure); see DESIGN.md. *)

type node

type t

val create : ?seed:int -> ?dims:int -> Simnet.Metric.t -> t
(** [dims] defaults to 2 (the classic deployment). *)

val cost : t -> Simnet.Cost.acc

val bootstrap : t -> addr:int -> node
(** First node: owns the whole space. *)

val join : t -> gateway:node -> addr:int -> node
(** Split the zone owning a random point. *)

val nodes : t -> node list

val random_node : t -> node

val node_addr : node -> int

val owner_of : t -> float array -> node
(** Zone owner of a point (oracle scan; test use). *)

val route : t -> from:node -> float array -> node * int
(** Greedy-route to the owner of a point, charging per hop. *)

val point_of_key : t -> int -> float array
(** Deterministic hash of an integer key to a point of the space. *)

val publish : t -> server:node -> guid_key:int -> unit

val locate : t -> from:node -> guid_key:int -> node option

val table_size : node -> int
(** Neighbor count (CAN's O(d) space claim). *)

val check_zones_partition : t -> samples:int -> bool
(** Every sampled point has exactly one owner (zones tile the space). *)
