(** Surrogate routing (Section 2.3).

    Routing resolves one digit of the destination GUID per hop using only
    local routing tables.  When the wanted entry is a hole, the two localized
    variants the paper gives disagree on the detour but both reach a unique
    root (Theorem 2):

    - {!Native}: take the next filled entry at the same level, wrapping
      around digit values;
    - {!Prr_like}: before the first hole route exactly; at the first hole
      take the entry matching the wanted digit in the most significant bits
      (ties to the numerically higher digit); after it always take the
      numerically highest filled digit.

    Both variants read slots through one scan, and {!Native} advances
    by {!step}, which the serving actors share.  A dead entry the scan
    meets goes to a caller hook.  The walks below pass the purge hook
    (lazy, timeout-based failure detection, Section 5.2): it charges a
    probe message, runs the optional [on_dead] callback (which lets
    {!Delete} install richer repair), drops the entry and re-scans the
    slot.  The actors' hook only notes the owner for barrier repair, so
    the scan moves past the entry; both pick the same next hop.

    The [exclude] parameter makes every table lookup skip one node, named
    by its arena handle, without mutating any state: Figure 10's "route as
    if the new node had not yet entered the network".  [skip] generalizes
    it to a predicate over entry handles, which the Section 6.3 locality
    optimization uses to confine a walk to one stub domain.  Either is
    tested before the entry's node is read. *)

type variant = Native | Prr_like

val equal_variant : variant -> variant -> bool

val step :
  Network.t -> skip:(int -> bool) -> dead:(Node.t -> int -> bool) ->
  Node.t -> Node_id.t -> level:int -> int
(** One {!Native} step of the walk toward the GUID that has resolved
    [level] digits at the node, passing over levels where the node is
    its own surrogate.  Answers [-1] at the walk's endpoint (the
    surrogate root), else one int holding the next hop's handle, the
    level to resume at there, and whether a hole was crossed on the way
    (a surrogate hop).  [skip] is asked before an entry's node is read;
    [dead owner h] is called on each dead entry and answers whether the
    slot changed (then it is re-scanned).  Allocates nothing. *)

val step_handle : int -> int
val step_level : int -> int

val no_skip : int -> bool

type info = {
  root : Node.t;
  path : Node.t list;  (** visited nodes in order, starting at the source *)
  surrogate_hops : int;  (** hops taken at or after the first hole *)
}

val fold_path :
  ?variant:variant ->
  ?on_dead:(Network.t -> owner:Node.t -> dead:Node_id.t -> unit) ->
  ?exclude:int ->
  ?skip:(int -> bool) ->
  Network.t ->
  from:Node.t ->
  Node_id.t ->
  init:'a ->
  f:('a -> Node.t -> [ `Continue of 'a | `Stop of 'a ]) ->
  Node.t * 'a * bool
(** Drive surrogate routing toward the root of a GUID, calling [f] at every
    visited node (the source first).  Returns the final node, the folded
    value, and whether [f] stopped the walk early. *)

val route_to_root :
  ?variant:variant ->
  ?on_dead:(Network.t -> owner:Node.t -> dead:Node_id.t -> unit) ->
  ?exclude:int ->
  Network.t ->
  from:Node.t ->
  Node_id.t ->
  info
(** Full walk to the surrogate root. *)

val route_to_node : Network.t -> from:Node.t -> Node_id.t -> Node.t option * Node.t list
(** Mesh-route to an exact node-ID.  Returns [None] if the walk ends
    elsewhere (the node is unknown or unreachable), plus the path. *)

val peek_first_hop : Network.t -> Node.t -> Node_id.t -> Node.t option
(** The node the next {!Native} routing step from here would forward to,
    without charging a message (used by pointer maintenance to detect
    path changes): one {!step} with the purge hook.  [None] when this
    node is the root. *)

val probe_hole :
  Network.t -> from:Node.t -> owner:Node.t -> level:int -> digit:int -> Node.t option
(** The routed probe for an empty slot [(level, digit)] of [owner]'s
    table: route from [from] toward [owner]'s ID with [digit] at [level].
    By the maximal-prefix property the root answers existence exactly, so
    the result is that root when it is not [owner] and shares the slot's
    prefix ([level + 1] digits), else [None].  Charges the walk. *)
