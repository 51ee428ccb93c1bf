(** The publish-everywhere strawman from the paper's introduction.

    Every node stores the location of every object, so queries go straight
    to the nearest replica (stretch 1) — at the price of Theta(n) messages
    per publish, Theta(n) state per object, and full membership knowledge. *)

type t

val create : n:int -> Simnet.Metric.t -> t

val cost : t -> Simnet.Cost.acc

val publish : t -> server_addr:int -> guid_key:int -> unit
(** Broadcasts the location to all [n] nodes. *)

val locate : t -> client_addr:int -> guid_key:int -> int option
(** Direct hop to the nearest replica. *)

val state_per_node : t -> int
(** Location entries each node must hold. *)
