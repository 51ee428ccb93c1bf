(** Bounded per-node object-pointer caches (PR 9).

    Under Zipf traffic every locate for a popular object re-pays nearly
    the full surrogate climb.  This module gives each node a small
    set-associative cache of [object -> server] mappings, learned as
    successful serve-tier fetches unwind: later requests that pass
    through a warm node jump straight to the server instead of climbing
    on.  Only the serve engine ([lib/serve]) probes and fills the
    caches; the synchronous tier's [Locate] never reads them.  Attached
    to a network, they are also seen by the sync [Publish.unpublish]
    (which retracts entries, see below), by [Audit.run] and by
    [Network.clear_soft_state].

    {b Layout.}  One structure serves the whole network, in the arena
    style of the routing tables, cut into segments of 64 handles: node
    [h]'s cache is the slice [l*ways .. l*ways+ways-1], [l = h mod 64],
    of segment [h / 64]'s parallel flat columns: two words per way (the
    key; the server handle and object-epoch snapshot packed into one
    int) and three bytes (hit count, flags — clock reference bit
    and hint mark — and the doorkeeper byte), 19 bytes in all.  Growth
    appends segments, so the arena can grow under churn
    without copying the lines it already has.  Probing and inserting
    are plain int scans over [ways] entries — no per-entry boxing, no
    allocation on the hot path.  An entry index (what {!probe} returns)
    packs the segment number above the cell within the segment.

    {b Keys.}  Object GUIDs are interned once (cold path) to dense int
    keys; the serve driver interns its object universe up front.  Key
    [-1] marks an empty way.

    {b Invalidation} is epoch-based and deterministic, at
    [(object, server)] granularity: unpublishing one replica bumps the
    epoch of that pair only, so cached shortcuts naming the object's
    {e other} servers — still perfectly valid — survive.  (A per-object
    epoch was measured to wipe a hot object's entire cached footprint on
    every retraction, capping the hit rate under Zipf traffic.)  An
    entry snapshots its pair's epoch at fill time and a probe whose
    snapshot mismatches self-evicts and reports stale.  A killed server
    is caught by the caller's liveness check: churn never revives a node
    or reuses its handle, so no per-entry server generation is needed.
    A stale hit therefore degrades to a redirect-and-reclimb, never a
    wrong answer — see DESIGN.md §10.

    {b Concurrency.}  In the serve engine all mutation happens either
    shard-confined (a node probing/filling its own cache line) or at
    barriers in fixed shard order (cross-node fill/evict intents, epoch
    bumps), so results are bit-identical for any [--domains].  The
    serve tier counts hits, misses and fills in per-shard
    {!Simnet.Stats.Tally.t} records and merges them in shard order. *)

val seg_handles : int
(** 64: node [h]'s line is line [h mod seg_handles] of segment
    [h / seg_handles]. *)

type segment = private {
  e_key : int array;  (** [lines*ways]; -1 = empty way *)
  e_srv_epoch : int array;
      (** server arena handle in bits 0-25, the object epoch snapshot at
          fill above *)
  e_hits : Bytes.t;
      (** frequency sketch: per-entry hit count, saturating at 255; a
          full line's organic fill replaces its coldest hint first *)
  e_flags : Bytes.t;
      (** bit 0: clock reference bit; bit 1: the entry arrived as a
          cooperative hint (clear: learned from the node's own fetch
          unwind) *)
  hand : int array;  (** per line: clock hand position *)
  dk : Bytes.t;
      (** doorkeeper admission bits, [ways] bytes (= 8*ways bits) per
          line; see {!insert} *)
  dk_fill : int array;
      (** per line: declined first-touch fills since the last
          doorkeeper reset *)
}
(** The lines of [seg_handles] consecutive handles ([lines] of them,
    the length of [hand]: all 64, except in the last segment of a
    cache created for a handle count that is not a multiple of 64). *)

type epochs
(** Retraction counts keyed by packed [(key, server-handle)] pairs: an
    int-keyed open-addressing table, no polymorphic hash or compare. *)

type t = private {
  ways : int;  (** associativity: entries per node; 0 = every probe misses *)
  mutable nodes : int;
      (** handles covered: every [h < nodes] has a line; always 0 for a
          zero-way cache *)
  mutable segs : segment array;
  ep : epochs;
      (** retraction count per packed [(key, server-handle)] pair;
          absent = 0.  Written only on unpublish (sync: inline; serve:
          at barriers) — sparse, bounded by retractions ever issued *)
  mutable guid_of : Node_id.t array;  (** key -> GUID (audit / tests) *)
  mutable keys : int;  (** number of interned keys *)
  key_tbl : int Node_id.Tbl.t;
}

val create : ways:int -> nodes:int -> t
(** [ways = 0] is legal: every probe misses and every insert is
    declined, so a zero-way cache is the serve engine's "no cache".  It
    covers no handle ([nodes = 0]) and holds no segment, whatever
    [nodes] asks for; {!ensure_nodes} leaves it so.
    @raise Invalid_argument if [ways < 0] or [nodes < 0]. *)

val ensure_nodes : t -> int -> unit
(** Cover handles [< n] by appending whole segments: the existing
    segments keep their arrays, so growth copies no line (a partial
    last segment from {!create} is first filled out to 64 lines, its
    one copy).  A churn join that takes the arena past a multiple of
    64 allocates 1/64 of a cache sized for 4096 nodes, and the next 63
    joins allocate nothing.  Every entry is preserved.  Serve tier:
    barrier-only. *)

val intern : t -> Node_id.t -> int
(** Dense key for a GUID, allocating one on first sight (cold path). *)

val find_key : t -> Node_id.t -> int
(** Like {!intern} but [-1] if the GUID was never interned — used where
    creating a key would be a side effect (sync unpublish). *)

val guid_of_key : t -> int -> Node_id.t

val epoch_of : t -> key:int -> srv:int -> int
(** Current retraction count of the [(key, srv)] pair (0 if never
    retracted).  Allocation-free. *)

val bump_epoch : t -> key:int -> srv:int -> unit
(** Invalidate every cached entry mapping [key] to server [srv] (lazily:
    their snapshots no longer match); entries naming other servers are
    untouched.  Serve tier: barrier-only. *)

val probe : t -> h:int -> key:int -> int
(** Look up [key] in node [h]'s line.  Returns the flat entry index
    ([>= 0]) on an epoch-current entry (touching its replacement stamp);
    [-1] on a miss; [-2] when the only entry was epoch-stale (the entry
    is evicted as a side effect).  The caller still checks that the
    named server is alive before trusting a hit: liveness is
    runtime-specific.  Allocation-free. *)

val probe_srv : t -> int -> int
(** Server handle of entry [i] (a [probe] result [>= 0]). *)

val probe_epoch : t -> int -> int
(** Epoch snapshot of entry [i] (a [probe] result [>= 0]) — what the
    serve digest forwards, so a hint is never fresher than the hit it
    was distilled from. *)

val probe_is_hint : t -> int -> bool
(** Whether entry [i] arrived via {!import_hint} rather than a learned
    fill (drives the [hint_hits] counter). *)

val insert : t -> h:int -> key:int -> server:int -> epoch:int -> unit
(** Fill (or refresh) node [h]'s line with [key -> server], recording
    the pair epoch snapshot [epoch].
    The serve tier takes the snapshot when the fill intent is logged, so
    a fill racing an unpublish in the same window lands already-stale
    instead of masking the bump.  A full line first gives up its coldest
    hint-sourced entry; failing that it evicts by a second-chance clock
    sweep.  Eviction is doorkeeper-gated: a fill that would displace a
    resident entry is declined on the key's first touch (a per-node bit
    array remembers it) and admitted on the second, so the Zipf tail
    cannot thrash the hot head out of a line.  Refreshes and empty-way
    fills always land.  Deterministic and allocation-free.
    @raise Invalid_argument if [server >= 2^26] or [epoch >= 2^36]. *)

val has_empty_way : t -> h:int -> bool
(** Whether node [h]'s line has a free way.  {!import_hint} only ever
    fills empty ways, so a [false] here lets a caller skip a whole
    digest of offers with a single scan. *)

val import_hint : t -> h:int -> key:int -> server:int -> epoch:int -> bool
(** Offer node [h] a cooperative hint [key -> server] with the
    exporter's epoch snapshot.  Declined (returns [false])
    when the line already holds the key in any way — the node's own
    learning always wins — or when no way is empty: a hint never
    displaces a resident entry (organic or hint), so cooperation adds
    to local learning instead of trading against it.  A landed hint is
    marked hint-sourced and starts with a cold sketch count.
    Deterministic and allocation-free.
    @raise Invalid_argument if [server >= 2^26] or [epoch >= 2^36]. *)

val evict_at : t -> int -> unit
(** Clear entry [i] (a [probe] result). *)

val evict : t -> h:int -> key:int -> server:int -> unit
(** Clear node [h]'s entry for [key], but only if it still names
    [server] — a later fill for a different server is left alone. *)

val reset : t -> unit
(** Clear all soft state — lines, sketch, hint marks, doorkeeper,
    replacement state and pair epochs — keeping the GUID interning.  Called by
    [Network.clear_soft_state] so multi-row sweeps replayed on a shared
    mesh stay independent. *)

val entries : t -> int
(** Occupied ways, O(nodes*ways) — diagnostics only. *)

val iter : t -> f:(h:int -> key:int -> server:int -> epoch:int -> unit) -> unit
(** Visit every occupied entry in handle order, a line's ways in order
    (audit). *)

val iter_ways :
  t -> f:(h:int -> key:int -> hits:int -> hint:bool -> i:int -> unit) -> unit
(** Visit every way of every covered line, empty ones ([key] -1)
    included, in {!iter}'s order: its key, sketch count, hint mark and
    entry index (the audit's sketch invariants). *)

val approx_bytes : t -> int
(** Resident-size estimate in the {!Network.memory_footprint} style. *)
