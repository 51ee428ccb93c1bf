(** Finite metric spaces over points addressed by dense integer indices.

    Every protocol in this reproduction consumes distances only through this
    interface, mirroring the paper's model: a network topology induces a
    metric space satisfying the triangle inequality (Section 3).  The
    expansion property of Equation 1 ([|B(2r)| <= c |B(r)|]) holds or fails
    depending on the generator; {!expansion_estimate} measures it.

    Point-based constructors ({!of_points}, {!of_points_torus}) additionally
    build a uniform-grid spatial index, making {!ball_count} (which
    {!expansion_estimate} samples) and {!nearest_other} cost O(|answer|)
    rather than O(size).  The [*_brute] variants are the always-available
    full scans, kept as oracles; grid and brute paths agree exactly,
    including tie-breaks. *)

type t

val make : size:int -> desc:string -> dist:(int -> int -> float) -> t
(** A metric over points [0 .. size-1]. [dist] must be symmetric, and zero
    exactly on the diagonal.  No spatial index (queries fall back to the
    brute scans). *)

val of_points : (float * float) array -> t
(** Euclidean metric over points in the plane, with a grid index. *)

val of_points_torus : side:float -> (float * float) array -> t
(** Euclidean metric with wrap-around on a [side] x [side] torus (the
    cleanest growth-restricted space: expansion constant 4 everywhere),
    with a wrap-aware grid index. *)

val of_matrix : float array array -> t
(** Explicit distance matrix (used for graph-induced metrics). *)

val size : t -> int

val desc : t -> string

val dist : t -> int -> int -> float

val indexed : t -> bool
(** Does this metric carry a spatial index (point-based constructors)? *)

val index_granularity : t -> int option
(** Cells per axis of the current grid index, [None] when unindexed. *)

val set_index_granularity : t -> per_axis:int -> unit
(** Rebuild the grid index at an explicit granularity (no-op when
    unindexed).  Query results are granularity-independent — only the
    constant factors move; tests use this to fabricate a mis-sized grid. *)

val rescale_index : t -> bool
(** Rebuild the grid index if its cell occupancy has drifted at least 2x
    from the sqrt(n)-cells-per-axis ideal — the guard callers run before a
    query-heavy phase when the index may have been built under a different
    density assumption.  Returns whether a rebuild happened.  Queries are
    exact either way; an oversized cell population only costs time.  Not
    safe concurrently with queries (it swaps the index in place). *)

val ball_count : t -> int -> float -> int
(** [ball_count m p r] is the number of points within distance [r] of
    [p] (including [p]).  O(|ball|) on indexed metrics, O(size)
    otherwise. *)

val nearest_other : t -> int -> int option
(** Closest point distinct from the argument (lowest index on ties). *)

val ball_count_brute : t -> int -> float -> int
(** Full-scan oracle for {!ball_count}; always O(size). *)

val nearest_other_brute : t -> int -> int option

val diameter : t -> sample:int -> rng:Rng.t -> float
(** Estimated diameter from [sample] random pairs (exact scan if the space
    is small). *)

val expansion_estimate : t -> samples:int -> rng:Rng.t -> float
(** Empirical expansion constant: max over sampled (point, radius) pairs of
    [|B(2r)|/|B(r)|], ignoring balls that already cover the space. *)

val approx_bytes : t -> int
(** Estimated resident bytes of the metric (coordinate arrays + CSR grid
    index, or the full matrix).  Feeds the scale-tier memory gauge. *)
