type t = {
  metric : Simnet.Metric.t;
  dir : int;
  entries : (int, int list) Hashtbl.t; (* guid key -> server addrs *)
  cost : Simnet.Cost.acc;
}

let create ?seed:_ ~directory_addr metric =
  { metric; dir = directory_addr; entries = Hashtbl.create 64; cost = Simnet.Cost.make () }

let cost t = t.cost

let directory_addr t = t.dir

let publish t ~server_addr ~guid_key =
  Simnet.Cost.send t.cost ~dist:(Simnet.Metric.dist t.metric server_addr t.dir);
  let cur = Option.value ~default:[] (Hashtbl.find_opt t.entries guid_key) in
  if not (List.exists (Int.equal server_addr) cur) then
    Hashtbl.replace t.entries guid_key (server_addr :: cur)

let unpublish t ~server_addr ~guid_key =
  Simnet.Cost.send t.cost ~dist:(Simnet.Metric.dist t.metric server_addr t.dir);
  match Hashtbl.find_opt t.entries guid_key with
  | None -> ()
  | Some cur -> (
      match List.filter (fun a -> a <> server_addr) cur with
      | [] -> Hashtbl.remove t.entries guid_key
      | rest -> Hashtbl.replace t.entries guid_key rest)

let locate t ~client_addr ~guid_key =
  Simnet.Cost.send t.cost ~dist:(Simnet.Metric.dist t.metric client_addr t.dir);
  match Hashtbl.find_opt t.entries guid_key with
  | None | Some [] -> None
  | Some addrs ->
      (* the directory forwards to the replica closest to the client *)
      let best =
        List.fold_left
          (fun acc a ->
            let d = Simnet.Metric.dist t.metric client_addr a in
            match acc with Some (_, bd) when bd <= d -> acc | _ -> Some (a, d))
          None addrs
      in
      let addr = Option.get best |> fst in
      Simnet.Cost.send t.cost ~dist:(Simnet.Metric.dist t.metric t.dir addr);
      Some addr

let directory_entries t =
  Hashtbl.fold (fun _ servers acc -> acc + List.length servers) t.entries 0
