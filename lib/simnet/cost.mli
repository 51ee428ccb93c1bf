(** Cost accounting for protocol operations.

    The paper measures algorithms in network messages, application-level
    hops, and network latency/distance, ignoring local computation
    (Section 3: "Our bounds [are] in terms of network latency or network
    hops and ignore local computation").  An {!acc} accumulates exactly
    those three quantities; protocol code charges it on every simulated
    message send.  A {!t} is a reading of one: a snapshot, or the cost of
    one operation. *)

type t = { messages : int; hops : int; latency : float }

type acc
(** A running accumulator.  Its three counters are unboxed float cells,
    so a charge allocates nothing; message and hop counts stay exact
    integers below 2{^ 53}. *)

val make : unit -> acc

val zero : acc -> unit
(** Reset all counters. *)

val send : acc -> dist:float -> unit
(** Charge one message over a link of the given length.  Counts as one
    message, one hop and [dist] latency. *)

val message : acc -> dist:float -> unit
(** Charge one message that is not on the critical path (e.g. parallel
    multicast fan-out): counts messages and latency but not hops. *)

val add : acc -> t -> unit
(** [add acc x] accumulates [x] into [acc]. *)

val snapshot : acc -> t

val diff : acc -> t -> t
(** [diff acc before]: what [acc] was charged since the snapshot
    [before]. *)

val restore : acc -> t -> unit
(** Set [acc]'s counters back to a snapshot's. *)

val pp : Format.formatter -> t -> unit
