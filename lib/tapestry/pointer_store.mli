(** Soft-state object pointers held at a node.

    Unlike PRR, Tapestry keeps a pointer for {e every} copy of an object
    (Section 2.4), so records are keyed by [(guid, server)].  Each record
    carries the last-hop node that forwarded the publish (the "previous"
    pointer Figure 9 requires) and an expiry time; pointers not refreshed by
    a republish disappear (Section 2.2, soft state).  The server and the
    previous hop are arena handles ([Node.handle]), as routing-table
    entries are, and [Network.node_of_handle] resolves them with one
    array read.

    Layout: no record type.  A store is parallel columns (GUID, server,
    root index, previous hop, an unboxed expiry, chain link),
    and a record is an index into them, [0 .. size-1], in dense order:
    insertion order as perturbed by swap-removes (a removal moves the
    last record into the hole).  Each GUID's records are chained newest
    first, and a small open-addressed index maps a GUID to its chain
    (DESIGN.md section 8.9).  A walk over a store is an index loop; a
    caller that writes other stores while it walks one relies on never
    writing the walked one.  Costs below count [c], the number
    of records the store holds for the GUID in question, and [n], all the
    records it holds; index probes are O(1) expected. *)

type cols = private {
  mutable guid : Node_id.t array;
  mutable server : int array;  (** arena handle of the replica's server *)
  mutable root_idx : int array;  (** root-set member the path serves (Observation 2) *)
  mutable previous : int array;  (** handle of the last hop toward the server, or [-1] *)
  mutable expires : float array;
  mutable next : int array;  (** chain link to the next older record of the GUID *)
  mutable len : int;
  mutable heads : int array;
  mutable nguids : int;
}
(** The columns, exposed read-only the way [Mailbox] exposes its
    struct-of-arrays: a hot reader reads [expires.(i)] in place, where a
    cross-module float return would box.  An index is valid until the
    store is next written (a removal moves the last record into the hole;
    growth or {!clear} replaces the columns), so re-read {!cols} after a
    write. *)

type t

val create : unit -> t
(** A fresh, empty store.  Costs a couple of words until the first
    {!store}: the columns and index are allocated lazily, so the 10^6 idle
    stores of a scale-tier mesh stay cheap. *)

val store : t -> guid:Node_id.t -> server:int -> root_idx:int ->
  previous:int -> expires:float -> int
(** Insert or refresh.  A new record becomes the newest of its GUID and
    the verdict is {!fresh}.  A refresh returns the old [previous] hop
    ([-1] if none) and overwrites it, and the expiry becomes the later of
    the two; it allocates nothing.  O(c); amortized O(1) growth of the
    columns and index, each doubling when full (see {!reserve}). *)

val reserve : t -> guids:int -> int -> unit
(** Make room for [n] more records, [guids] of them under GUIDs the
    store does not hold yet, with at most one allocation per column and
    one index rehash.  The capacities are those the doublings of
    {!store} would reach (columns from 4, the index from 8 at load at
    most 1/2), so {!approx_bytes} is the same as for a store that grew
    record by record; the next [n] such {!store}s then allocate nothing
    and keep the columns.  Placement ({!Publish.place}) reserves each
    store once from its deposit count.  No-op for [n <= 0]. *)

val fresh : int
(** {!store}'s verdict for a new record ([-2]: no handle or [-1]). *)

val cols : t -> cols
(** The current columns.  O(1). *)

val find : t -> guid:Node_id.t -> server:int -> root_idx:int -> int
(** The record's index in {!cols}, or [-1].  O(c). *)

val mem_guid : t -> Node_id.t -> bool
(** Is any record held for this GUID?  O(1). *)

val exists_guid_match : t -> Node_id.t -> f:(cols -> int -> bool) -> bool
(** Is there a record for this GUID satisfying [f] (called with the
    columns and the record's index)?  Allocation-free with
    early exit, newest first; O(c) — the locate walk's per-hop pointer
    probe. *)

val iter_guid : t -> Node_id.t -> f:(cols -> int -> unit) -> unit
(** Visit every record of this GUID (as columns and index), newest
    first (a refresh does not move a record; a removal keeps the order of
    the rest), so the order is deterministic for a deterministic mutation
    history.  Allocation-free, O(c).  The closest-usable-server scans of
    [Locate] and the serve tier. *)

val remove : t -> guid:Node_id.t -> server:int -> root_idx:int -> bool
(** Drop one record; false if it was not held.  O(c) plus the relink of
    the record that swap-remove moves into its place (O(length of that
    record's chain)). *)

val size : t -> int
(** Records held; they sit at indices [0 .. size-1].  O(1). *)

val expire : t -> now:float -> int
(** Drop records whose expiry passed; returns how many were dropped.
    O(n) scan plus one removal per dropped record. *)

val clear : t -> unit
(** Drop every record (the store reverts to the unallocated empty state).
    O(1).  Used by {!Network.clear_soft_state} to reuse a built mesh
    across serve-bench rows without rebuilding routing state. *)

val approx_bytes : t -> int
(** Estimated resident bytes of this store (columns and index) — an
    arithmetic model, not GC truth: six capacity columns and no
    per-record block.  O(1).  Feeds {!Network.memory_footprint}. *)
