(** The centralized-directory strawman from the paper's introduction.

    One directory node records every replica; clients query it and are
    forwarded to a replica.  Deterministic and simple, but query latency is
    proportional to the client-directory distance regardless of how close
    the object is — the stretch pathology that motivates Tapestry — and the
    directory is a single point of load and failure. *)

type t

val create : ?seed:int -> directory_addr:int -> Simnet.Metric.t -> t

val cost : t -> Simnet.Cost.acc

val directory_addr : t -> int

val publish : t -> server_addr:int -> guid_key:int -> unit

val unpublish : t -> server_addr:int -> guid_key:int -> unit

val locate : t -> client_addr:int -> guid_key:int -> int option
(** Returns the replica address the directory forwards to (the recorded
    replica closest to the client).  Charges client->directory->replica. *)

val directory_entries : t -> int
(** Directory size: all load concentrates here. *)
