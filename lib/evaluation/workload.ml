open Tapestry

type placed_object = { guid : Node_id.t; servers : Node.t list }

let distinct_servers net rng k =
  let all = Array.of_list (Network.alive_nodes net) in
  Simnet.Rng.shuffle rng all;
  Array.to_list (Array.sub all 0 (min k (Array.length all)))

let place_objects ?(on_secondaries = false) net ~count ~replicas =
  let cfg = net.Network.config in
  List.init count (fun _ ->
      let guid =
        Node_id.random ~base:cfg.Config.base ~len:cfg.Config.id_digits
          net.Network.rng
      in
      let servers = distinct_servers net net.Network.rng replicas in
      List.iter
        (fun server -> ignore (Publish.publish ~on_secondaries net ~server guid))
        servers;
      { guid; servers })

let optimal_distance net ~client obj =
  List.fold_left
    (fun acc s -> min acc (Network.dist net client s))
    infinity obj.servers

type query = { client : Node.t; obj : placed_object }

let uniform_queries net ~objects ~count =
  List.init count (fun _ ->
      {
        client = Network.random_alive net;
        obj = Simnet.Rng.pick_list net.Network.rng objects;
      })

let stratified_queries net ~objects ~per_bucket ~buckets =
  (* Band queries by optimal distance relative to the largest optimal
     distance seen in a calibration sample. *)
  let rng = net.Network.rng in
  let sample () =
    { client = Network.random_alive net; obj = Simnet.Rng.pick_list rng objects }
  in
  let max_d =
    let worst = ref 0. in
    for _ = 1 to 200 do
      let q = sample () in
      worst := max !worst (optimal_distance net ~client:q.client q.obj)
    done;
    max !worst epsilon_float
  in
  let bucket_of q =
    let d = optimal_distance net ~client:q.client q.obj in
    min (buckets - 1) (int_of_float (d /. max_d *. float_of_int buckets))
  in
  let bins = Array.make buckets [] in
  let filled = Array.make buckets 0 in
  let attempts = ref 0 in
  let budget = per_bucket * buckets * 200 in
  while Array.exists (fun c -> c < per_bucket) filled && !attempts < budget do
    incr attempts;
    let q = sample () in
    let b = bucket_of q in
    if filled.(b) < per_bucket then begin
      bins.(b) <- q :: bins.(b);
      filled.(b) <- filled.(b) + 1
    end
  done;
  List.init buckets (fun b -> (b, bins.(b)))

type churn_event = Join | Leave_voluntary | Fail

let churn_trace ~rng ~steps ~p_join ~p_leave =
  List.init steps (fun _ ->
      let u = Simnet.Rng.float rng 1.0 in
      if u < p_join then Join
      else if u < p_join +. p_leave then Leave_voluntary
      else Fail)
