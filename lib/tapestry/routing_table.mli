(** Per-node routing mesh state: neighbor sets and backpointers.

    A slot [(l, j)] (level l+1, digit j in the paper's numbering) holds the
    neighbor set N_{alpha,j} where alpha is the first [l] digits of the
    owner's ID: up to R nodes whose IDs share alpha and have j as their next
    digit, ordered by network distance (Property 2).  The closest is the
    primary, the rest secondaries.  If fewer than R such nodes are stored,
    the set must contain every (alpha, j) node in the system (Property 1 —
    an empty slot is a "hole" certifying that no such node exists).

    The owner itself appears in its own slot at every level with distance 0,
    which makes routing and multicast uniform.  Backpointers record, per
    level, which nodes hold this node in their table (Section 2.1), in
    flat per-level vectors read by index like the slots.

    Slots are packed flat arrays of [(handle, dist)] pairs sorted in place
    (capacity R), so the routing hot path reads entries by index and
    resolves nodes through the network's O(1) handle arena — no hashing, no
    per-hop allocation.  Each neighbor is stored once, by handle: its ID
    is read from the network's name column ({!names}), which the table
    reaches through a reference set at registration.  Each level keeps its
    slots in one row, allocated when the level gets its first entry other
    than the owner; a level without a row holds only the owner's
    self-entry, which every accessor reports as a row would.  A node
    occupies at most one cell per level (the slot its digit selects, once;
    audited), so a walk over a level's slots meets each neighbor once. *)

type entry = { id : Node_id.t; dist : float }

type names = { mutable ids : Node_id.t array }
(** A network's name column: [ids.(h)] is the ID of the node registered
    with arena handle [h] (dead nodes keep theirs).  One per network,
    filled by [Network.register]; tests that build tables without a
    network make their own. *)

type t

val create : Config.t -> owner:Node_id.t -> t
(** Fresh table containing only the owner itself; no level has a row. *)

val owner : t -> Node_id.t

val owner_handle : t -> int
(** The owner's arena handle, [-1] until {!set_owner_handle}.  A cell
    holding it is the owner's self-entry. *)

val set_owner_handle : t -> names -> int -> unit
(** Record the name column the table reads IDs from and the owner's arena
    handle (called once by [Network.register], after it wrote the owner's
    ID into the column), and stamp the handle on the owner's
    self-entries. *)

val levels : t -> int

val base : t -> int

val slot : t -> level:int -> digit:int -> entry list
(** Ascending by distance.  [level] is the shared-prefix length (0-based).
    Allocates a fresh list view; hot paths should use {!slot_len} /
    {!slot_id} / {!slot_handle} / {!slot_dist} instead. *)

val slot_len : t -> level:int -> digit:int -> int
(** Number of live entries in the slot, O(1). *)

val filled_mask : t -> level:int -> int
(** Bitmask over digits: bit [j] is set iff slot [(level, j)] is non-empty.
    Lets a digit scan skip holes with one bit test per digit instead of a
    [slot_len] read (requires [base <= Sys.int_size - 1], which
    {!Node_id}'s radix-32 alphabet already guarantees). *)

val ntz : int -> int
(** Trailing zeros of a non-zero {!filled_mask}: its lowest filled digit.
    Branch-free (de Bruijn multiply). *)

val next_filled : t -> level:int -> want:int -> tries:int -> int
(** The wrap-order digit scan's step: the least [tries' >= tries] below
    [base] whose digit [(want + tries') mod base] has a non-empty slot
    at [level], or [-1].  One rotate of {!filled_mask} and a
    count-trailing-zeros, so holes cost nothing. *)

val slot_id : t -> level:int -> digit:int -> k:int -> Node_id.t
(** ID of the [k]-th closest entry ([k < slot_len]), O(1): the name
    column's entry at its handle. *)

val slot_handle : t -> level:int -> digit:int -> k:int -> int
(** Arena handle of the [k]-th entry, O(1); every entry carries one. *)

val slot_dist : t -> level:int -> digit:int -> k:int -> float
(** Recorded distance of the [k]-th entry, O(1). *)

val primary : t -> level:int -> digit:int -> entry option

val is_hole : t -> level:int -> digit:int -> bool

val consider : t -> level:int -> candidate:Node_id.t -> handle:int ->
  dist:float -> int
(** Offer a candidate, with arena handle [handle], for the slot its digit
    selects at [level]; keeps the R closest, matching entries by handle.
    The caller must verify the candidate shares [level] digits with the
    owner.  Returns {!known} if present (distance refreshed), {!rejected}
    if the slot is full of closer nodes, else the evicted entry's handle
    (whose backpointer must be dropped) or [-1]: an int, so no verdict is
    allocated. *)

val known : int

val rejected : int

val update_distances : t -> measure:(int -> float option) -> int
(** Re-measure every entry other than the owner's self-entries through
    its arena handle ([None] drops it) and re-sort each slot; returns
    the number of slots whose primary changed.  The mechanism behind the
    Section 6.4 primary-rotation heuristic. *)

val remove : t -> int -> int list
(** Remove the node with this arena handle everywhere it appears; returns
    the levels it was found at. *)

(** {2 Backpointers}

    Each level keeps its holders in a flat vector of holder arena handles
    (IDs are read from the name column).  {b Order}: holders appear in the order they were
    recorded at that level, and {!remove_backpointer} closes the gap
    keeping the others' order.  The index accessors and {!backpointers} report
    that order; {!all_backpointers} reports its reverse.  Walks over
    holders (GETNEXTLIST, {!Delete.voluntary}) are therefore deterministic
    functions of the link history. *)

val add_backpointer : t -> level:int -> int -> unit
(** Append the holder with this arena handle to [level]'s vector with no
    scan; the owner itself is never recorded.  {b Precondition}: the
    holder is not recorded at [level] — true when {!consider} just added
    the owner to its slot, by backpointer symmetry (audited both ways; a
    breach shows as [duplicate-backpointer]). *)

val remove_backpointer : ?handle:int -> t -> level:int -> Node_id.t -> unit
(** Drop holder [id] from [level], matched by [handle] when given,
    otherwise by the name at each holder's handle.  No-op when absent. *)

val backpointer_len : t -> level:int -> int
(** Number of holders recorded at [level], O(1). *)

val backpointer_id : t -> level:int -> k:int -> Node_id.t
(** ID of the [k]-th holder at [level] ([k < backpointer_len]), O(1). *)

val backpointer_handle : t -> level:int -> k:int -> int
(** Arena handle of the [k]-th holder, O(1). *)

val backpointers : t -> level:int -> Node_id.t list
(** The level's holders as a fresh list, in vector order. *)

val all_backpointers : t -> (int * Node_id.t) list
(** Every [(level, holder)] pair, from the top level down and, within a
    level, newest holder first (reverse vector order), by ID.
    {!Delete.voluntary} notifies a leaver's holders in this order, reading
    the vectors by handle instead of calling this. *)

val iter_handles : t -> (level:int -> int -> unit) -> unit
(** [f ~level h] for every entry's arena handle, self-entries included,
    by level, digit and rank.  [f] must not change this table's slots. *)

val iter_entries : t -> (level:int -> digit:int -> entry -> unit) -> unit
(** The same walk over list snapshots of each slot, so [f] may remove
    entries. *)

val entry_count : t -> int
(** Total neighbor entries excluding the owner's self entries (space
    accounting for Table 1), read straight off the packed arrays. *)

val backpointer_count : t -> int
(** Total backpointers registered across all levels, O(levels). *)

val approx_bytes : t -> int
(** Estimated resident bytes of this table (the allocated level rows, a
    handle array and a distance array each, + the per-level backpointer
    handle vectors at their current capacity; IDs, which live in the name
    column, excluded).  Feeds {!Network.memory_footprint}. *)

val allocated_rows : t -> int
(** Number of levels holding a slot row, O(levels). *)

val holes : t -> (int * int) list
(** All empty slots as [(level, digit)] pairs. *)

val inject_slot_for_test :
  t -> level:int -> digit:int -> (int * float) list -> unit
(** Fault injection for {!Audit} tests only: overwrite a slot verbatim
    with [(handle, dist)] pairs, bypassing ordering and backpointer
    bookkeeping.  Never call this from protocol code — it deliberately
    lets tests corrupt the mesh. *)
