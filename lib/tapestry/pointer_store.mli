(** Soft-state object pointers held at a node.

    Unlike PRR, Tapestry keeps a pointer for {e every} copy of an object
    (Section 2.4), so records are keyed by [(guid, server)].  Each record
    carries the last-hop node that forwarded the publish (the "previous"
    pointer Figure 9 requires) and an expiry time; pointers not refreshed by
    a republish disappear (Section 2.2, soft state).  The server and the
    previous hop are arena handles ([Node.handle]), as routing-table
    entries are: a record boxes nothing but its expiry, and
    [Network.node_of_handle] resolves them with one array read.

    Layout: the records sit in one dense vector, each GUID's records are
    chained newest first, and a small open-addressed index maps a GUID to
    its chain (DESIGN.md section 8.9).  Costs below count [c], the number
    of records the store holds for the GUID in question, and [n], all the
    records it holds; index probes are O(1) expected. *)

type record = {
  guid : Node_id.t;
  server : int;  (** arena handle of the replica's server *)
  root_idx : int;  (** which member of the root set this path serves (Observation 2) *)
  mutable previous : int;
      (** arena handle of the last hop toward the server; [-1] at the
          server itself *)
  mutable expires : float;
}

type t

val create : unit -> t
(** A fresh, empty store.  Costs a couple of words until the first
    {!store}: the vector and index are allocated lazily, so the 10^6 idle
    stores of a scale-tier mesh stay cheap. *)

val store : t -> guid:Node_id.t -> server:int -> root_idx:int ->
  previous:int -> expires:float -> int
(** Insert or refresh.  A new record becomes the newest of its GUID and
    the verdict is {!fresh}.  A refresh returns the old [previous] hop
    ([-1] if none) and overwrites it, and the expiry becomes the later of
    the two; it allocates nothing.  O(c); amortized O(1) growth of the
    vector and index. *)

val fresh : int
(** {!store}'s verdict for a new record ([-2]: no handle or [-1]). *)

val find : t -> guid:Node_id.t -> server:int -> root_idx:int -> record option
(** O(c). *)

val mem_guid : t -> Node_id.t -> bool
(** Is any record held for this GUID?  O(1). *)

val exists_guid_match : t -> Node_id.t -> f:(record -> bool) -> bool
(** Is there a record for this GUID satisfying [f]?  Allocation-free with
    early exit, newest first; O(c) — the locate walk's per-hop pointer
    probe. *)

val iter_guid : t -> Node_id.t -> f:(record -> unit) -> unit
(** Visit every record of this GUID without building a list, newest
    first (a refresh does not move a record; a removal keeps the order of
    the rest), so the order is deterministic for a deterministic mutation
    history.  Allocation-free, O(c).  The closest-usable-server scans of
    [Locate] and the serve tier. *)

val remove : t -> guid:Node_id.t -> server:int -> root_idx:int -> bool
(** Drop one record; false if it was not held.  O(c) plus the relink of
    the record that swap-remove moves into its place (O(length of that
    record's chain)). *)

val records : t -> record list
(** Every record, in dense-vector order: insertion order as perturbed by
    swap-removes (a removal moves the last record into the hole).  O(n),
    allocating the list. *)

val size : t -> int
(** O(1). *)

val expire : t -> now:float -> int
(** Drop records whose expiry passed; returns how many were dropped.
    O(n) scan plus one removal per dropped record. *)

val clear : t -> unit
(** Drop every record (the store reverts to the unallocated empty state).
    O(1).  Used by {!Network.clear_soft_state} to reuse a built mesh
    across serve-bench rows without rebuilding routing state. *)

val approx_bytes : t -> int
(** Estimated resident bytes of this store (vectors, index, records) — an
    arithmetic model, not GC truth: 8 words per record (the 6-word record
    and its boxed expiry).  O(1).  Feeds {!Network.memory_footprint}. *)
