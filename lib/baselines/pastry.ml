module Node_id = Tapestry.Node_id
module Config = Tapestry.Config

type node = {
  id : Node_id.t;
  key : int;
  addr : int;
  table : node option array array; (* table.(level).(digit), proximity-chosen *)
  mutable leaves : node list; (* the leaf_set circularly closest others *)
  pointers : (Node_id.t * int, unit) Hashtbl.t; (* (guid, server addr) *)
  mutable alive : bool;
}

type t = {
  cfg : Config.t;
  keyspace : int;
  leaf_set : int;
  metric : Simnet.Metric.t;
  mutable members : node list;
  rng : Simnet.Rng.t;
  cost : Simnet.Cost.acc;
}

let create ?(seed = 42) ?(leaf_set = 8) (cfg : Config.t) metric =
  let bits = ref 1 in
  for _ = 1 to cfg.Config.id_digits do
    bits := !bits * cfg.Config.base
  done;
  {
    cfg;
    keyspace = !bits;
    leaf_set;
    metric;
    members = [];
    rng = Simnet.Rng.create seed;
    cost = Simnet.Cost.make ();
  }

let cost t = t.cost

let nodes t = List.filter (fun n -> n.alive) t.members

let random_node t = Simnet.Rng.pick_list t.rng (nodes t)

let node_id n = n.id

let node_addr n = n.addr

let net_dist t a b = Simnet.Metric.dist t.metric a.addr b.addr

let charge t a b = Simnet.Cost.send t.cost ~dist:(net_dist t a b)

(* circular numeric distance on the key ring *)
let ring_dist t a b =
  let d = abs (a - b) in
  min d (t.keyspace - d)

let key_of t id = Node_id.to_int ~base:t.cfg.Config.base id

let fresh_id t =
  let rec go tries =
    if tries > 10000 then failwith "Pastry.fresh_id: exhausted";
    let id =
      Node_id.random ~base:t.cfg.Config.base ~len:t.cfg.Config.id_digits t.rng
    in
    if List.exists (fun n -> Node_id.equal n.id id) t.members then go (tries + 1)
    else id
  in
  go 0

let make_node t ~addr =
  let id = fresh_id t in
  let n =
    {
      id;
      key = key_of t id;
      addr;
      table =
        Array.init t.cfg.Config.id_digits (fun _ ->
            Array.make t.cfg.Config.base None);
      leaves = [];
      pointers = Hashtbl.create 8;
      alive = true;
    }
  in
  t.members <- n :: t.members;
  n

(* --- state maintenance --- *)

let consider_table t owner cand =
  if cand != owner && cand.alive then begin
    let l = Node_id.common_prefix_len owner.id cand.id in
    if l < t.cfg.Config.id_digits then begin
      let digit = Node_id.digit cand.id l in
      match owner.table.(l).(digit) with
      | Some cur when cur.alive && net_dist t owner cur <= net_dist t owner cand -> ()
      | _ -> owner.table.(l).(digit) <- Some cand
    end
  end

(* clockwise offset from a to b on the ring *)
let cw_offset t a b = ((b - a) mod t.keyspace + t.keyspace) mod t.keyspace

let rec take i = function
  | [] -> []
  | x :: rest -> if i = 0 then [] else x :: take (i - 1) rest

(* The [leaf_set / 2] members nearest the owner in one ring direction,
   [off] giving each member's offset that way. *)
let nearest_side t off members =
  take (t.leaf_set / 2) (List.sort (fun a b -> Int.compare (off a) (off b)) members)

let consider_leaf t owner cand =
  if cand != owner && cand.alive
     && not (List.exists (fun x -> x == cand) owner.leaves)
  then begin
    (* proper Pastry leaf set: the L/2 nearest members clockwise and the
       L/2 nearest counter-clockwise, so the covered span is symmetric
       around the owner; in a ring of at most L members one node may be
       on both sides, and is kept once *)
    let all = cand :: owner.leaves in
    let cw = nearest_side t (fun x -> cw_offset t owner.key x.key) all in
    let ccw = nearest_side t (fun x -> cw_offset t x.key owner.key) all in
    owner.leaves <- cw @ List.filter (fun x -> not (List.memq x cw)) ccw
  end

let learn t owner cand =
  consider_table t owner cand;
  consider_leaf t owner cand

let known owner =
  let acc = ref [] in
  Array.iter
    (Array.iter (function Some n when n.alive -> acc := n :: !acc | _ -> ()))
    owner.table;
  List.iter (fun n -> if n.alive then acc := n :: !acc) owner.leaves;
  !acc

(* --- routing --- *)

let numerically_closer t key a b = ring_dist t key a.key < ring_dist t key b.key

let route_next t (x : node) target_id target_key =
  (* 1. leaf-set case: if the key lies within the leaf-set span, jump to the
     numerically closest member (or stop at self) *)
  let candidates = x :: x.leaves in
  let best_leaf =
    List.fold_left
      (fun acc c -> if numerically_closer t target_key c acc then c else acc)
      x candidates
  in
  let span_covers =
    (* per-side span: the leaf set covers the key iff it lies between the
       furthest of the counter-clockwise side and the furthest of the
       clockwise side, each side as [consider_leaf] picks it *)
    match x.leaves with
    | [] -> true
    | leaves ->
        let reach off =
          List.fold_left (fun m l -> max m (off l)) 0 (nearest_side t off leaves)
        in
        let off = cw_offset t x.key target_key in
        off <= reach (fun l -> cw_offset t x.key l.key)
        || t.keyspace - off <= reach (fun l -> cw_offset t l.key x.key)
  in
  if span_covers then if best_leaf == x then None else Some best_leaf
  else begin
    (* 2. prefix case *)
    let l = Node_id.common_prefix_len x.id target_id in
    let entry =
      if l < t.cfg.Config.id_digits then
        match x.table.(l).(Node_id.digit target_id l) with
        | Some e when e.alive -> Some e
        | _ -> None
      else None
    in
    match entry with
    | Some e -> Some e
    | None ->
        (* 3. rare case: any known node with >= l shared digits that is
           numerically closer than x *)
        let better =
          List.filter
            (fun c ->
              Node_id.common_prefix_len c.id target_id >= l
              && numerically_closer t target_key c x)
            (known x)
        in
        (match better with
        | [] -> if best_leaf == x then None else Some best_leaf
        | c :: rest ->
            Some (List.fold_left (fun acc d -> if numerically_closer t target_key d acc then d else acc) c rest))
  end

let route t ~from target_id =
  let target_key = key_of t target_id in
  let max_hops = 4 * t.cfg.Config.id_digits in
  let rec go x hops =
    if hops > max_hops then (x, hops)
    else
      match route_next t x target_id target_key with
      | None -> (x, hops)
      | Some next ->
          charge t x next;
          go next (hops + 1)
  in
  go from 0

(* --- membership --- *)

let bootstrap t ~addr =
  let n = make_node t ~addr in
  n

let join t ~gateway ~addr =
  let n = make_node t ~addr in
  charge t n gateway;
  (* route toward the new ID, learning from every hop (the Pastry join copies
     row i of the i-th node on the path; offering everything each hop knows
     subsumes that and stays proximity-aware) *)
  let target_key = n.key in
  let rec walk x hops acc =
    learn t n x;
    List.iter (learn t n) (known x);
    if hops > 4 * t.cfg.Config.id_digits then (x, acc)
    else
      match route_next t x n.id target_key with
      | None -> (x, acc)
      | Some next ->
          charge t x next;
          walk next (hops + 1) (x :: acc)
  in
  let root, _path = walk gateway 0 [] in
  (* adopt the numeric neighbor's leaf set *)
  List.iter (learn t n) (root :: root.leaves);
  (* announce: everyone the new node knows considers it back *)
  List.iter
    (fun peer ->
      charge t n peer;
      learn t peer n)
    (known n);
  (* pointer handover from the previous numeric root *)
  let moving =
    Hashtbl.fold
      (fun (guid, server) () acc ->
        if ring_dist t (key_of t guid) n.key < ring_dist t (key_of t guid) root.key
        then (guid, server) :: acc
        else acc)
      root.pointers []
  in
  List.iter
    (fun kv ->
      Hashtbl.remove root.pointers kv;
      Hashtbl.replace n.pointers kv ();
      Simnet.Cost.message t.cost ~dist:(net_dist t root n))
    moving;
  n

(* --- objects --- *)

let publish t ~server guid =
  let root, _ = route t ~from:server guid in
  Hashtbl.replace root.pointers (guid, server.addr) ()

let locate t ~from guid =
  let root, _ = route t ~from guid in
  let servers =
    Hashtbl.fold
      (fun (g, addr) () acc -> if Node_id.equal g guid then addr :: acc else acc)
      root.pointers []
  in
  match servers with
  | [] -> None
  | addrs ->
      let best =
        List.fold_left
          (fun acc a ->
            let d = Simnet.Metric.dist t.metric root.addr a in
            match acc with Some (_, bd) when bd <= d -> acc | _ -> Some (a, d))
          None addrs
      in
      let addr, d = Option.get best in
      Simnet.Cost.send t.cost ~dist:d;
      List.find_opt (fun n -> n.addr = addr && n.alive) t.members

let table_size n =
  let entries = ref 0 in
  Array.iter
    (Array.iter (function Some _ -> incr entries | None -> ()))
    n.table;
  !entries + List.length n.leaves

let check_routes_converge t ~samples =
  let ok = ref true in
  for _ = 1 to samples do
    let guid =
      Node_id.random ~base:t.cfg.Config.base ~len:t.cfg.Config.id_digits t.rng
    in
    (* oracle: the alive node with minimal ring distance *)
    let oracle =
      List.fold_left
        (fun acc n -> if numerically_closer t (key_of t guid) n acc then n else acc)
        (List.hd (nodes t))
        (nodes t)
    in
    for _ = 1 to 8 do
      let from = random_node t in
      let got, _ = route t ~from guid in
      if got != oracle then ok := false
    done
  done;
  !ok
