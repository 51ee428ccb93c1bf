(** Cooperative fibers over simulated time, built on OCaml 5 effect handlers.

    The synchronous cost-accounting mode (see {!Cost}) measures message and
    latency totals but cannot interleave operations.  Experiments E7/E8
    (availability during insertion, simultaneous insertions — Sections 4.3
    and 4.4 of the paper) need real interleavings, which this scheduler
    provides: fibers perform {!sleep} to model link latency and {!Ivar.read}
    to await replies, and the discrete-event loop advances a virtual clock.

    Single-domain and deterministic: runs with equal seeds replay exactly.

    The concurrency experiments and [Tapestry.Async_ops] use it.  The
    serve engine does not: its drains and injectors only ever sleep a
    fixed service time or a drawn gap, so they run as plain functions
    on a flat per-shard timer heap ([Serve.Mailbox.Timer]) that pops
    in the same (time, push sequence) order as this scheduler. *)

type t
(** A scheduler instance. *)

val create : unit -> t

val now : t -> float
(** Current virtual time. *)

val spawn : t -> (unit -> unit) -> unit
(** Queue a new fiber to start at the current virtual time. *)

val spawn_at : t -> float -> (unit -> unit) -> unit
(** Queue a fiber to start at an absolute virtual time (>= now). *)

val sleep : t -> float -> unit
(** Suspend the calling fiber for the given virtual duration.  Must be
    called from inside a fiber. *)

val run : t -> unit
(** Run until no runnable fiber remains.  Fibers still blocked on empty
    ivars at that point are stalled (see {!stalled_fibers}). *)

val run_until : t -> float -> unit
(** Run every event at or before the given virtual time, including
    events queued meanwhile, then lift the clock to it. *)

val stalled_fibers : t -> int
(** Number of fibers that started but neither finished nor are queued —
    i.e. blocked forever on ivars.  0 after a clean [run]. *)

(** Single-assignment synchronization cells, bound to a scheduler. *)
module Ivar : sig
  type 'a ivar

  val create : t -> 'a ivar

  val fill : 'a ivar -> 'a -> unit
  (** Wake all readers at the current virtual time.
      @raise Invalid_argument if already filled. *)

  val read : 'a ivar -> 'a
  (** Block the calling fiber until the ivar is filled.  Must be called from
      inside a fiber of the same scheduler. *)

  val is_full : 'a ivar -> bool

  val peek : 'a ivar -> 'a option
end
