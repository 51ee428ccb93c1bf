(** Stub-locality enhancement (Section 6.3).

    On transit-stub topologies, intra-stub latency is an order of magnitude
    below inter-stub latency.  The optimization keeps a locate for an object
    that has a copy inside the client's stub from ever crossing a transit
    link: publication spawns a "local branch" — surrogate routing confined
    to the stub, terminating at a local root — and queries first exhaust the
    local branch before resuming wide-area routing.

    The stub membership oracle is injected (the paper: "assume Tapestry
    nodes can detect whether the next hop is within the same stub"; in
    practice a latency threshold).  Local-branch pointers are ordinary
    pointer-store records under a reserved root index. *)

val local_root_idx : int
(** Reserved [root_idx] marking local-branch pointer records: the
    largest root index a record holds ({!Pointer_store.max_root_idx}),
    above any root-set size {!Config.validate} accepts. *)

val publish :
  Network.t ->
  same_stub:(int -> int -> bool) ->
  server:Node.t ->
  Node_id.t ->
  unit
(** Wide-area publish plus a local branch: when the publish path is about to
    leave the server's stub, a second publish message surrogate-routes to a
    local root inside the stub, depositing local pointers on the way. *)

val locate :
  Network.t ->
  same_stub:(int -> int -> bool) ->
  client:Node.t ->
  Node_id.t ->
  Locate.result
(** Stub-confined search first (never leaves the client's stub); falls back
    to ordinary {!Locate.locate} if the local root knows nothing. *)
