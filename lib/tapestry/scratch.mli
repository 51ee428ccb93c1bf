(** Per-network scratch buffers for the insertion hot path (DESIGN.md
    §8.7).

    One instance lives in {!Network.t} and is reused across every join: the
    nearest-neighbor descent and the acknowledged multicast mark visited
    nodes with generation stamps indexed by arena handle, memoize joiner
    distances per descent, and keep their candidate / selection / worklist
    buffers here instead of allocating per call ({!Delete.dead_neighbours}
    borrows the visit stamps).  Not reentrant — the simulator guarantees
    none of these runs inside another on the same network (fibers yield
    only at insertion stage boundaries). *)

type t = {
  mutable stamp : int array;  (** per-handle visited mark vs [visit_gen] *)
  mutable visit_gen : int;
  mutable dist : float array;  (** per-handle memoized joiner distance *)
  mutable dist_stamp : int array;  (** validity mark for [dist] vs [dist_gen] *)
  mutable dist_gen : int;
  mutable cand : int array;  (** candidate handles of one descent step *)
  mutable cand_len : int;
  mutable sel : int array;  (** bounded selection heap (handles) *)
  mutable cur : int array;  (** surviving level list between descent steps *)
  mutable cur_len : int;
  mutable stack : int array;  (** multicast DFS per-frame target segments *)
  mutable sp : int;
  mutable reached : int array;  (** multicast visit order (handles) *)
  mutable reached_len : int;
}

val create : unit -> t

val ensure_handles : t -> n:int -> unit
(** Grow the handle-indexed arrays to cover at least [n] handles. *)

val ensure_sel : t -> k:int -> unit
(** Grow the selection heap to hold at least [k] handles. *)

val bump_visit : t -> int
(** Start a new traversal; returns the fresh generation. *)

val bump_dist : t -> int
(** Start a new descent's distance memo; returns the fresh generation. *)

val push_cand : t -> int -> unit

val push_stack : t -> int -> unit

val push_reached : t -> int -> unit

val set_cur : t -> int array -> int -> unit
(** [set_cur t src len] copies [src.(0..len)] into the level list. *)

val approx_bytes : t -> int
(** Estimated resident bytes of the scratch buffers (arrays scale with the
    arena).  Feeds {!Network.memory_footprint}. *)
