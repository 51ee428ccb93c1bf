type t = {
  n : int;
  metric : Simnet.Metric.t;
  replicas : (int, int list) Hashtbl.t; (* guid key -> server addrs *)
  cost : Simnet.Cost.acc;
}

let create ~n metric = { n; metric; replicas = Hashtbl.create 64; cost = Simnet.Cost.make () }

let cost t = t.cost

let publish t ~server_addr ~guid_key =
  (* one message per participant; latency approximated by the mean link *)
  for other = 0 to t.n - 1 do
    if other <> server_addr then
      Simnet.Cost.message t.cost
        ~dist:(Simnet.Metric.dist t.metric server_addr other)
  done;
  let cur = Option.value ~default:[] (Hashtbl.find_opt t.replicas guid_key) in
  if not (List.exists (Int.equal server_addr) cur) then
    Hashtbl.replace t.replicas guid_key (server_addr :: cur)

let locate t ~client_addr ~guid_key =
  match Hashtbl.find_opt t.replicas guid_key with
  | None | Some [] -> None
  | Some addrs ->
      let best =
        List.fold_left
          (fun acc a ->
            let d = Simnet.Metric.dist t.metric client_addr a in
            match acc with Some (_, bd) when bd <= d -> acc | _ -> Some (a, d))
          None addrs
      in
      let addr, d = Option.get best in
      Simnet.Cost.send t.cost ~dist:d;
      Some addr

let state_per_node t = Hashtbl.length t.replicas
