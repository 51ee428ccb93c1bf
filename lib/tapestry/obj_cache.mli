(** Bounded per-node object-pointer caches (PR 9).

    Under Zipf traffic every locate for a popular object re-pays nearly
    the full surrogate climb.  This module gives each node a small
    set-associative cache of [object -> server] mappings, learned as
    successful locates unwind: later requests that pass through a warm
    node jump straight to the server instead of climbing on.

    {b Layout.}  One structure serves the whole network, in the arena
    style of the routing tables: node [h]'s cache is the slice
    [h*ways .. h*ways+ways-1] of parallel flat int arrays (key, server
    handle, server generation, object-epoch snapshot, clock reference
    bit, hit count).  Probing and inserting are plain int scans over [ways]
    entries — no per-entry boxing, no allocation on the hot path.

    {b Keys.}  Object GUIDs are interned once (cold path) to dense int
    keys; the serve driver interns its object universe up front, the
    sync locate path interns on first touch.  Key [-1] marks an empty
    way.

    {b Invalidation} is epoch-based and deterministic, at
    [(object, server)] granularity: unpublishing one replica bumps the
    epoch of that pair only, so cached shortcuts naming the object's
    {e other} servers — still perfectly valid — survive.  (A per-object
    epoch was measured to wipe a hot object's entire cached footprint on
    every retraction, capping the hit rate under Zipf traffic.)  An
    entry snapshots its pair's epoch at fill time and a probe whose
    snapshot mismatches self-evicts and reports stale.  Entries also
    carry the server's mailbox generation (serve tier) so a server
    killed and resurrected by churn is detected without any global
    flush.  A stale hit therefore degrades to a redirect-and-reclimb,
    never a wrong answer — see DESIGN.md §10.

    {b Concurrency.}  In the serve engine all mutation happens either
    shard-confined (a node probing/filling its own cache line) or at
    barriers in fixed shard order (cross-node fill/evict intents, epoch
    bumps), so results are bit-identical for any [--domains].  The
    embedded {!tally} is for the synchronous path only; the serve tier
    keeps per-shard {!Simnet.Stats.Tally.t} records and merges them in
    shard order. *)

type t = private {
  ways : int;  (** associativity: entries per node, > 0 *)
  mutable nodes : int;  (** arena-handle capacity *)
  mutable e_key : int array;  (** [nodes*ways]; -1 = empty way *)
  mutable e_srv : int array;  (** server arena handle *)
  mutable e_gen : int array;  (** server mailbox generation at fill (0 sync) *)
  mutable e_epoch : int array;  (** object epoch snapshot at fill *)
  mutable e_stamp : int array;  (** clock reference bit *)
  mutable e_hits : int array;
      (** frequency sketch: saturating per-entry hit count; a full
          line's organic fill replaces its coldest hint first *)
  mutable e_src : Bytes.t;
      (** ['\001'] = entry arrived as a cooperative hint, ['\000'] =
          learned from the node's own fetch unwind *)
  mutable hand : int array;  (** per node: clock hand position *)
  mutable dk : Bytes.t;
      (** doorkeeper admission bits, [ways] bytes (= 8*ways bits) per
          node; see {!insert} *)
  mutable dk_fill : int array;
      (** per node: declined first-touch fills since the last
          doorkeeper reset *)
  ep_tbl : (int, int) Hashtbl.t;
      (** retraction count per packed [(key, server-handle)] pair;
          absent = 0.  Written only on unpublish (sync: inline; serve:
          at barriers) — sparse, bounded by retractions ever issued *)
  mutable guid_of : Node_id.t array;  (** key -> GUID (audit / tests) *)
  mutable keys : int;  (** number of interned keys *)
  key_tbl : int Node_id.Tbl.t;
  tally : Simnet.Stats.Tally.t;  (** sync-path accounting only *)
}

val create : ways:int -> nodes:int -> t
(** @raise Invalid_argument if [ways <= 0] or [nodes < 0]. *)

val ensure_nodes : t -> int -> unit
(** Grow the per-node lines to cover handles [< n] (amortized doubling;
    existing entries are preserved).  Serve tier: barrier-only. *)

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
    is evicted as a side effect).  The caller still validates the named
    server (alive + generation) before trusting a hit: liveness is
    runtime-specific.  Allocation-free. *)

val probe_srv : t -> int -> int
(** Server handle of entry [i] (a [probe] result [>= 0]). *)

val probe_gen : t -> int -> int
(** Fill-time server generation of entry [i]. *)

val probe_epoch : t -> int -> int
(** Epoch snapshot of entry [i] (a [probe] result [>= 0]) — what the
    serve digest forwards, so a hint is never fresher than the hit it
    was distilled from. *)

val probe_is_hint : t -> int -> bool
(** Whether entry [i] arrived via {!import_hint} rather than a learned
    fill (drives the [hint_hits] counter). *)

val insert : t -> h:int -> key:int -> server:int -> gen:int -> unit
(** Fill (or refresh) node [h]'s line with [key -> server], snapshotting
    the pair's current epoch.  A full line first gives up its coldest
    hint-sourced entry; failing that it evicts by a second-chance clock
    sweep.  Eviction is doorkeeper-gated: a fill that would displace a
    resident entry is declined on the key's first touch (a per-node bit
    array remembers it) and admitted on the second, so the Zipf tail
    cannot thrash the hot head out of a line.  Refreshes and empty-way
    fills always land.  Deterministic and allocation-free. *)

val insert_snap :
  t -> h:int -> key:int -> server:int -> gen:int -> epoch:int -> unit
(** {!insert} with an explicit epoch snapshot — the serve tier records
    the epoch when the fill intent is logged, so a fill racing an
    unpublish in the same window lands already-stale instead of masking
    the bump. *)

val has_empty_way : t -> h:int -> bool
(** Whether node [h]'s line has a free way.  {!import_hint} only ever
    fills empty ways, so a [false] here lets a caller skip a whole
    digest of offers with a single scan. *)

val import_hint :
  t -> h:int -> key:int -> server:int -> gen:int -> epoch:int -> bool
(** Offer node [h] a cooperative hint [key -> server] with the
    exporter's generation/epoch snapshot.  Declined (returns [false])
    when the line already holds the key in any way — the node's own
    learning always wins — or when no way is empty: a hint never
    displaces a resident entry (organic or hint), so cooperation adds
    to local learning instead of trading against it.  A landed hint is
    marked hint-sourced and starts with a cold sketch count.
    Deterministic and allocation-free. *)

val evict_at : t -> int -> unit
(** Clear entry [i] (a [probe] result). *)

val evict : t -> h:int -> key:int -> server:int -> unit
(** Clear node [h]'s entry for [key], but only if it still names
    [server] — a later fill for a different server is left alone. *)

val reset : t -> unit
(** Clear all soft state — lines, sketch, hint marks, doorkeeper,
    replacement state, pair epochs, and the sync tally — keeping the
    GUID interning.  Called by
    [Network.clear_soft_state] so multi-row sweeps replayed on a shared
    mesh stay independent. *)

val entries : t -> int
(** Occupied ways, O(nodes*ways) — diagnostics only. *)

val iter :
  t -> f:(h:int -> key:int -> server:int -> gen:int -> epoch:int -> unit) -> unit
(** Visit every occupied entry in flat-index order (audit). *)

val approx_bytes : t -> int
(** Resident-size estimate in the {!Network.memory_footprint} style. *)
