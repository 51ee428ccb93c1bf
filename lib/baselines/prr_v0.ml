type t = {
  metric : Simnet.Metric.t;
  n : int;
  levels : int; (* log2 n *)
  width : int; (* c log2 n trials per level *)
  reps : int array array array; (* reps.(v).(i).(j) = closest member of S_{i,j} to v *)
  member_objects : (int, (int * int) list) Hashtbl.t array;
      (* per node: guid key -> (guid key, server addr) — objects of nodes pointing here *)
  cost : Simnet.Cost.acc;
}

let build ?(seed = 42) ?(c = 3) metric =
  let n = Simnet.Metric.size metric in
  if n < 2 then invalid_arg "Prr_v0.build: need at least 2 points";
  let rng = Simnet.Rng.create seed in
  let levels = int_of_float (ceil (log (float_of_int n) /. log 2.)) in
  let width = max 1 (c * levels) in
  (* Nested sampling: draw u ~ U[0,1) per (node, trial); node is in S_{i,j}
     iff u < 2^i / n, which gives S_{i,j} subseteq S_{i+1,j}. *)
  let draws = Array.init n (fun _ -> Array.init width (fun _ -> Simnet.Rng.float rng 1.0)) in
  let in_set v ~i ~j =
    let p = float_of_int (1 lsl i) /. float_of_int n in
    draws.(v).(j) < p
  in
  let root = Simnet.Rng.int rng n in
  (* Representative tables: for each (i, j) collect members, then give every
     node its closest member. Level 0 trial 0 is the single root. *)
  let reps =
    Array.init n (fun _ -> Array.make_matrix (levels + 1) width (-1))
  in
  for i = 0 to levels do
    for j = 0 to width - 1 do
      let members =
        if i = 0 then if j = 0 then [ root ] else []
        else
          List.filter (fun v -> in_set v ~i ~j) (List.init n (fun v -> v))
      in
      match members with
      | [] -> ()
      | members ->
          for v = 0 to n - 1 do
            let best =
              List.fold_left
                (fun acc m ->
                  let d = Simnet.Metric.dist metric v m in
                  match acc with Some (_, bd) when bd <= d -> acc | _ -> Some (m, d))
                None members
            in
            reps.(v).(i).(j) <- fst (Option.get best)
          done
    done
  done;
  {
    metric;
    n;
    levels;
    width;
    reps;
    member_objects = Array.init n (fun _ -> Hashtbl.create 4);
    cost = Simnet.Cost.make ();
  }

let cost t = t.cost

let levels t = t.levels

let width t = t.width

let publish t ~server_addr ~guid_key =
  (* Every representative of the server learns about the object. *)
  for i = 0 to t.levels do
    for j = 0 to t.width - 1 do
      let rep = t.reps.(server_addr).(i).(j) in
      if rep >= 0 then begin
        Simnet.Cost.message t.cost
          ~dist:(Simnet.Metric.dist t.metric server_addr rep);
        let tbl = t.member_objects.(rep) in
        let cur = Option.value ~default:[] (Hashtbl.find_opt tbl guid_key) in
        if
          not
            (List.exists
               (fun (g, s) -> Int.equal g guid_key && Int.equal s server_addr)
               cur)
        then
          Hashtbl.replace tbl guid_key ((guid_key, server_addr) :: cur)
      end
    done
  done

let locate t ~client_addr ~guid_key =
  (* Probe representatives from the densest level down; all j of one level
     are queried in parallel (latency counts the round trip per probe). *)
  let rec try_level i =
    if i < 0 then None
    else begin
      let found = ref None in
      for j = 0 to t.width - 1 do
        let rep = t.reps.(client_addr).(i).(j) in
        if rep >= 0 then begin
          let d = Simnet.Metric.dist t.metric client_addr rep in
          Simnet.Cost.send t.cost ~dist:(2. *. d);
          if !found = None then
            match Hashtbl.find_opt t.member_objects.(rep) guid_key with
            | Some ((_, server) :: _) -> found := Some server
            | _ -> ()
        end
      done;
      match !found with Some s -> Some s | None -> try_level (i - 1)
    end
  in
  match try_level t.levels with
  | None -> None
  | Some server ->
      Simnet.Cost.send t.cost ~dist:(Simnet.Metric.dist t.metric client_addr server);
      Some server

let space_per_node t =
  let rep_entries =
    Array.fold_left
      (fun acc per_node ->
        acc
        + Array.fold_left
            (fun a row ->
              a + Array.fold_left (fun b r -> if r >= 0 then b + 1 else b) 0 row)
            0 per_node)
      0 t.reps
  in
  let obj_entries =
    Array.fold_left (fun acc tbl -> acc + Hashtbl.length tbl) 0 t.member_objects
  in
  float_of_int (rep_entries + obj_entries) /. float_of_int t.n
