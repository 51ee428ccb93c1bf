(** Full mesh invariant audit (run at quiescent points).

    Extends {!Verify} (which checks Property 4 pointer paths) with the
    structural invariants the paper's correctness argument rests on:

    - {b hole certification} (Property 1 / Definition 1): an empty slot of
      a core node certifies that {e no} core node extends that
      (prefix, digit) — each hole is proved against the full membership;
    - {b slot ordering and primacy} (Property 2): entries in every slot
      ascend by network distance, so the closest candidate is primary;
    - {b backpointer symmetry} (Section 2.1): A holds B at level l iff B
      has a level-l backpointer to A, in both directions;
    - {b owner presence}: every node fills its own digit slot at every
      level (routing and multicast rely on it);
    - {b one cell per level}: an entry sits only in the slot its digit
      selects, and only once there (level walks need no dedup);
    - {b handle consistency}: a slot entry's arena handle resolves to the
      node the name column names for it; no holder is recorded twice at a
      level (joins append without a scan);
    - {b pointer expiry consistency} (Section 2.2 soft state): no node
      retains an object pointer past its expiry;
    - {b cache coherence} (PR 9): when an {!Obj_cache} is attached, every
      cached entry either names a registered, epoch-current, live server
      that still holds the replica, or is provably redirectable — its
      epoch snapshot is behind (a probe self-evicts it) or its server is
      dead (the probe's liveness check rejects it).  Either way a stale
      hit degrades to the ordinary climb and never yields a wrong
      answer; see DESIGN.md §10.

    All checks walk the network without charging, so audits can be
    interleaved with measured runs.  Consumed by tests and by
    [tapestry_sim build --audit]. *)

type violation =
  | Uncertified_hole of {
      node : Node_id.t;
      level : int;
      digit : int;
      witness : Node_id.t;  (** a core node proving the hole is a lie *)
    }
  | Misordered_slot of { node : Node_id.t; level : int; digit : int }
  | Misplaced_entry of {
      node : Node_id.t;
      level : int;
      digit : int;
      entry : Node_id.t;  (** entry whose ID does not select this slot *)
    }
  | Duplicate_entry of {
      node : Node_id.t;
      level : int;
      digit : int;
      entry : Node_id.t;  (** entry recorded more than once in the slot *)
    }
  | Dangling_entry of {
      node : Node_id.t;
      level : int;
      digit : int;
      entry : Node_id.t;  (** entry pointing at a dead or unknown node *)
    }
  | Stale_handle of {
      node : Node_id.t;
      level : int;
      digit : int;
      entry : Node_id.t;
          (** entry whose cached arena handle resolves to a different node *)
    }
  | Missing_backpointer of {
      holder : Node_id.t;
      level : int;
      target : Node_id.t;  (** held by [holder] but not backpointing it *)
    }
  | Stale_backpointer of {
      node : Node_id.t;
      level : int;
      source : Node_id.t;  (** backpointer source that no longer holds [node] *)
    }
  | Duplicate_backpointer of { node : Node_id.t; level : int; source : Node_id.t }
  | Missing_owner of { node : Node_id.t; level : int }
  | Expired_pointer of {
      node : Node_id.t;
      guid : Node_id.t;
      server : Node_id.t;
      root_idx : int;
      expires : float;
    }
  | Footprint_excess of { total_bytes : int; budget_bytes : int }
      (** {!Network.memory_footprint} exceeds the O(n log n) space budget
          (Table 1): per-node fixed table cost plus an O(log n) allowance,
          2x slack.  Trips on superlinear-per-node regressions. *)
  | Cache_incoherent of {
      holder : Node_id.t option;
          (** cache-line owner; [None] = line beyond the arena *)
      guid : Node_id.t;
      reason : string;
    }
      (** An {!Obj_cache} entry that is neither currently valid nor
          provably redirectable (see the coherence bullet above). *)

type report = {
  nodes_audited : int;
  entries_checked : int;  (** non-owner routing entries examined *)
  holes_certified : int;  (** empty slots proved to be genuine holes *)
  violations : violation list;
}

val run : Network.t -> report
(** Audit every alive node (hole certification is restricted to core
    nodes, matching Definition 1).  Charge-free. *)

val is_clean : report -> bool

val violation_code : violation -> string
(** Stable short code per constructor (e.g. ["uncertified-hole"]), used by
    tests to assert exactly which corruption was detected. *)

val pp_violation : Format.formatter -> violation -> unit

val pp_report : Format.formatter -> report -> unit
