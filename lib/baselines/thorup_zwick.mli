(** Thorup-Zwick approximate distance oracles (STOC 2001), adapted to object
    location — the improvement the paper points at for Section 7: "our
    result for general metrics can be improved using results of Thorup and
    Zwick to use only O(n log n) space".

    The classic k-level construction: [A_0 = all nodes], each [A_{i+1}] a
    [n^{-1/k}]-sample of [A_i]; node v keeps its pivots [p_i(v)] (closest
    member of [A_i]) and its {e bunch} [B(v)] — every w in [A_i \ A_{i+1}]
    closer to v than [p_{i+1}(v)].  Expected bunch size is [k n^{1/k}], so
    k = log n gives O(log n) entries per node and O(n log n) total space on
    {e any} metric, with stretch at most 2k-1.

    Object location: a server registers its objects with its pivots and
    bunch; a client probes its own pivots and bunch.  The Thorup-Zwick
    distance-query argument guarantees the two sets intersect at a node w
    with [d(u,w) + d(w,v) <= (2k-1) d(u,v)]. *)

type t

val build : ?seed:int -> ?k:int -> Simnet.Metric.t -> t
(** [k] levels (default [ceil(log2 n)], the paper's regime). *)

val cost : t -> Simnet.Cost.acc

val k : t -> int

val space_per_node : t -> float
(** Mean pivots + bunch entries + inverted object registrations per node. *)

val approx_distance : t -> int -> int -> float
(** The classic oracle query; at most [2k-1] times the true distance. *)

val publish : t -> server_addr:int -> guid_key:int -> unit

val locate : t -> client_addr:int -> guid_key:int -> int option
(** Probe the client's pivots and bunch (charging round trips); returns the
    server address and charges the final fetch hop. *)
