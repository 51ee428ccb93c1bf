(** PRR v.0 — the static sampling scheme for general metric spaces
    (Section 7, Theorem 7).

    For each level [i] in [1 .. log n] and trial [j] in [0 .. c log n), the
    sample set [S_{i,j}] contains each node independently with probability
    [2^i / n] (with [S_{i,j} \subseteq S_{i+1,j}] enforced by nested coin
    flips, as the theorem's proof requires); [S_{0,0}] is a single random
    node.  Each node stores its closest member of every set; each set member
    stores the objects of the nodes that point to it.

    A query for object Y held at node v probes the querier's representatives
    from the densest level downward and stops at the first that knows Y;
    Theorem 7 bounds the distance of that representative by
    [d(X,Y) log n] w.h.p., giving polylog stretch on {e any} metric. *)

type t

val build : ?seed:int -> ?c:int -> Simnet.Metric.t -> t
(** Sample the sets and build every node's representative table.  [c] is the
    per-level trial multiplier (default 3). *)

val cost : t -> Simnet.Cost.acc

val levels : t -> int

val width : t -> int
(** Trials per level, [c log n]. *)

val publish : t -> server_addr:int -> guid_key:int -> unit
(** Register an object held at [server_addr] with all of the server's
    representatives. *)

val locate : t -> client_addr:int -> guid_key:int -> int option
(** Top-down probe; returns the server address if found.  Charges one round
    trip per probed representative plus the final fetch hop. *)

val space_per_node : t -> float
(** Mean representative-table plus inverted-list entries per node — the
    O(log^2 n) space column of Table 1. *)
