type node = {
  addr : int;
  lo : float array; (* zone bounds, per dimension: [lo, hi) *)
  hi : float array;
  mutable neighbors : node list;
  pointers : (int, int list) Hashtbl.t; (* guid key -> server addrs *)
  mutable alive : bool;
  mutable split_depth : int;
}

type t = {
  dims : int;
  metric : Simnet.Metric.t;
  mutable members : node list;
  rng : Simnet.Rng.t;
  cost : Simnet.Cost.acc;
}

let create ?(seed = 42) ?(dims = 2) metric =
  if dims < 1 || dims > 6 then invalid_arg "Can.create: dims out of range";
  {
    dims;
    metric;
    members = [];
    rng = Simnet.Rng.create seed;
    cost = Simnet.Cost.make ();
  }

let cost t = t.cost

let nodes t = List.filter (fun n -> n.alive) t.members

let random_node t = Simnet.Rng.pick_list t.rng (nodes t)

let node_addr n = n.addr

let net_dist t a b = Simnet.Metric.dist t.metric a.addr b.addr

let charge t a b = Simnet.Cost.send t.cost ~dist:(net_dist t a b)

let contains n p =
  let ok = ref true in
  Array.iteri (fun i x -> if x < n.lo.(i) || x >= n.hi.(i) then ok := false) p;
  !ok

(* per-dimension torus distance from coordinate x to interval [lo, hi) *)
let coord_dist x lo hi =
  if x >= lo && x < hi then 0.
  else begin
    let d1 = abs_float (x -. lo) and d2 = abs_float (x -. hi) in
    let plain = min d1 d2 in
    let wrapped = min (abs_float (x +. 1. -. hi)) (abs_float (lo +. 1. -. x)) in
    min plain wrapped
  end

let zone_dist t n p =
  let acc = ref 0. in
  for i = 0 to t.dims - 1 do
    let d = coord_dist p.(i) n.lo.(i) n.hi.(i) in
    acc := !acc +. (d *. d)
  done;
  sqrt !acc

(* intervals abut (torus-aware: 0 and 1 identify) *)
let abuts lo1 hi1 lo2 hi2 =
  let eq a b = abs_float (a -. b) < 1e-12 in
  eq hi1 lo2 || eq hi2 lo1
  || (eq hi1 1.0 && eq lo2 0.0)
  || (eq hi2 1.0 && eq lo1 0.0)

let overlaps lo1 hi1 lo2 hi2 = lo1 < hi2 -. 1e-12 && lo2 < hi1 -. 1e-12

let adjacent t a b =
  (* neighbors share a (d-1)-dimensional face: abutting in exactly one
     dimension and overlapping in all the others *)
  let abutting = ref 0 and overlapping = ref 0 in
  for i = 0 to t.dims - 1 do
    if abuts a.lo.(i) a.hi.(i) b.lo.(i) b.hi.(i) then incr abutting
    else if overlaps a.lo.(i) a.hi.(i) b.lo.(i) b.hi.(i) then incr overlapping
  done;
  !abutting >= 1 && !abutting + !overlapping = t.dims

let refresh_neighbors t n =
  n.neighbors <- List.filter (fun m -> m.alive && m != n && adjacent t n m) t.members

let bootstrap t ~addr =
  let n =
    {
      addr;
      lo = Array.make t.dims 0.;
      hi = Array.make t.dims 1.;
      neighbors = [];
      pointers = Hashtbl.create 8;
      alive = true;
      split_depth = 0;
    }
  in
  t.members <- n :: t.members;
  n

let owner_of t p =
  match List.find_opt (fun n -> contains n p) (nodes t) with
  | Some n -> n
  | None -> invalid_arg "Can.owner_of: zones do not cover the point"

let route t ~from p =
  let max_hops = 8 * List.length t.members in
  let rec go x hops =
    if contains x p || hops > max_hops then (x, hops)
    else begin
      let best =
        List.fold_left
          (fun acc m ->
            match acc with
            | Some b when zone_dist t b p <= zone_dist t m p -> acc
            | _ -> Some m)
          None x.neighbors
      in
      match best with
      | Some next when zone_dist t next p < zone_dist t x p ->
          charge t x next;
          go next (hops + 1)
      | _ -> (x, hops) (* stalled: shouldn't happen on a proper tiling *)
    end
  in
  go from 0

let point_of_key t k =
  (* splitmix-style hash per dimension *)
  let rng = Simnet.Rng.create (k * 2654435761) in
  Array.init t.dims (fun _ -> Simnet.Rng.float rng 1.0)

let join t ~gateway ~addr =
  let p = Array.init t.dims (fun _ -> Simnet.Rng.float t.rng 1.0) in
  Simnet.Cost.send t.cost ~dist:(Simnet.Metric.dist t.metric addr gateway.addr);
  let owner, _ = route t ~from:gateway p in
  (* split the owner's zone along the round-robin dimension *)
  let dim = owner.split_depth mod t.dims in
  let mid = (owner.lo.(dim) +. owner.hi.(dim)) /. 2. in
  let n =
    {
      addr;
      lo = Array.copy owner.lo;
      hi = Array.copy owner.hi;
      neighbors = [];
      pointers = Hashtbl.create 8;
      alive = true;
      split_depth = owner.split_depth + 1;
    }
  in
  (* the new node takes the upper half *)
  n.lo.(dim) <- mid;
  owner.hi.(dim) <- mid;
  owner.split_depth <- owner.split_depth + 1;
  t.members <- n :: t.members;
  (* pointer handover for keys now in the new half *)
  let moving =
    Hashtbl.fold
      (fun k v acc -> (k, v) :: acc)
      owner.pointers []
  in
  List.iter
    (fun (k, v) ->
      let kp = point_of_key t k in
      if contains n kp then begin
        Hashtbl.remove owner.pointers k;
        Hashtbl.replace n.pointers k v;
        Simnet.Cost.message t.cost ~dist:(net_dist t owner n)
      end)
    moving;
  (* neighbor updates: the new node, the split owner, and everyone around *)
  let affected = n :: owner :: owner.neighbors in
  List.iter
    (fun m ->
      charge t n m;
      refresh_neighbors t m)
    affected;
  n

let publish t ~server ~guid_key =
  let p = point_of_key t guid_key in
  let owner, _ = route t ~from:server p in
  let cur = Option.value ~default:[] (Hashtbl.find_opt owner.pointers guid_key) in
  Hashtbl.replace owner.pointers guid_key (server.addr :: cur)

let locate t ~from ~guid_key =
  let p = point_of_key t guid_key in
  let owner, _ = route t ~from p in
  match Hashtbl.find_opt owner.pointers guid_key with
  | Some (_ :: _ as addrs) ->
      let best =
        List.fold_left
          (fun acc a ->
            let d = Simnet.Metric.dist t.metric owner.addr a in
            match acc with Some (_, bd) when bd <= d -> acc | _ -> Some (a, d))
          None addrs
      in
      let addr, d = Option.get best in
      Simnet.Cost.send t.cost ~dist:d;
      List.find_opt (fun n -> n.addr = addr && n.alive) t.members
  | _ -> None

let table_size n = List.length n.neighbors

let check_zones_partition t ~samples =
  let ok = ref true in
  for _ = 1 to samples do
    let p = Array.init t.dims (fun _ -> Simnet.Rng.float t.rng 1.0) in
    let owners = List.filter (fun n -> contains n p) (nodes t) in
    if List.length owners <> 1 then ok := false
  done;
  !ok
