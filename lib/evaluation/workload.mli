(** Workload generation shared by the experiments.

    Objects are placed on random servers with a configurable replica count;
    queries are drawn either uniformly or stratified by the distance from
    the client to its nearest replica (the variable the stretch claims are
    about). *)

type placed_object = {
  guid : Tapestry.Node_id.t;
  servers : Tapestry.Node.t list;  (** replica servers, in publish order *)
}

val place_objects :
  ?on_secondaries:bool ->
  Tapestry.Network.t ->
  count:int ->
  replicas:int ->
  placed_object list
(** Publish [count] objects, each on [replicas] distinct random servers.
    [on_secondaries] uses the PRR-style publication that also deposits
    pointers on each hop's secondary neighbors (Section 2.4). *)

val optimal_distance : Tapestry.Network.t -> client:Tapestry.Node.t -> placed_object -> float
(** Distance from the client to its closest replica (stretch denominator). *)

type query = { client : Tapestry.Node.t; obj : placed_object }

val uniform_queries :
  Tapestry.Network.t -> objects:placed_object list -> count:int -> query list

val stratified_queries :
  Tapestry.Network.t ->
  objects:placed_object list ->
  per_bucket:int ->
  buckets:int ->
  (int * query list) list
(** Queries grouped into [buckets] equal-width bands of optimal distance
    (bucket 0 = nearest); rejection-samples uniform pairs, so sparse bands
    may come back short. *)

(** Churn traces for the availability experiments. *)
type churn_event =
  | Join
  | Leave_voluntary
  | Fail

val churn_trace :
  rng:Simnet.Rng.t -> steps:int -> p_join:float -> p_leave:float -> churn_event list
(** [steps] events: joins with probability [p_join], voluntary leaves with
    [p_leave], silent failures otherwise. *)
