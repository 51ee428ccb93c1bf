type node = {
  key : int;
  addr : int;
  mutable succs : node list; (* successor list, ascending ring distance *)
  mutable pred : node option;
  fingers : node option array;
  pointers : (int, int list) Hashtbl.t; (* guid key -> server addrs *)
  mutable alive : bool;
}

type t = {
  m : int;
  space : int; (* 2^m *)
  succ_list : int;
  metric : Simnet.Metric.t;
  mutable members : node list; (* oracle bookkeeping, not protocol state *)
  keys : (int, node) Hashtbl.t;
  rng : Simnet.Rng.t;
  cost : Simnet.Cost.acc;
}

let create ?(seed = 42) ~m ~succ_list metric =
  if m < 3 || m > 30 then invalid_arg "Chord.create: m out of range";
  {
    m;
    space = 1 lsl m;
    succ_list = max 1 succ_list;
    metric;
    members = [];
    keys = Hashtbl.create 64;
    rng = Simnet.Rng.create seed;
    cost = Simnet.Cost.make ();
  }

let cost t = t.cost

let node_key n = n.key

let node_addr n = n.addr

let nodes t = List.filter (fun n -> n.alive) t.members

let random_node t = Simnet.Rng.pick_list t.rng (nodes t)

let dist t a b = Simnet.Metric.dist t.metric a.addr b.addr

let charge t a b = Simnet.Cost.send t.cost ~dist:(dist t a b)

(* Is x in the half-open ring interval (a, b]? *)
let in_interval t ~a ~b x =
  let norm v = ((v - a) mod t.space + t.space) mod t.space in
  let nb = norm b and nx = norm x in
  nb <> 0 && nx <> 0 && nx <= nb

let fresh_key t =
  let rec go tries =
    if tries > 10000 then failwith "Chord.fresh_key: key space exhausted";
    let k = Simnet.Rng.int t.rng t.space in
    if Hashtbl.mem t.keys k then go (tries + 1) else k
  in
  go 0

let make_node t ~addr =
  let key = fresh_key t in
  let n =
    {
      key;
      addr;
      succs = [];
      pred = None;
      fingers = Array.make t.m None;
      pointers = Hashtbl.create 8;
      alive = true;
    }
  in
  Hashtbl.replace t.keys key n;
  t.members <- n :: t.members;
  n

let successor n = match n.succs with s :: _ -> s | [] -> n

(* Closest finger (or successor) strictly inside (n.key, key). *)
let closest_preceding n t key =
  let best = ref None in
  let consider c =
    if c.alive && c != n && in_interval t ~a:n.key ~b:key c.key && c.key <> key
    then begin
      (* keep the candidate farthest around the ring toward key *)
      let better =
        match !best with
        | None -> true
        | Some b -> in_interval t ~a:b.key ~b:key c.key
      in
      if better then best := Some c
    end
  in
  Array.iter (function Some f -> consider f | None -> ()) n.fingers;
  List.iter consider n.succs;
  !best

(* Recursive lookup for successor(key), charging each forwarding hop. *)
let find_successor t ~from key =
  let rec go n hops =
    if hops > 4 * t.m then (successor n, hops) (* safety valve *)
    else begin
      let succ = successor n in
      match n.succs with
      | [] -> (n, hops)
      | _ :: _ ->
          if in_interval t ~a:n.key ~b:succ.key key then begin
            charge t n succ;
            (succ, hops + 1)
          end
          else begin
            match closest_preceding n t key with
            | Some next when next != n ->
                charge t n next;
                go next (hops + 1)
            | _ ->
                charge t n succ;
                go succ (hops + 1)
          end
    end
  in
  go from 0

let lookup t ~from key = find_successor t ~from key

let truncate_succs t l =
  let rec take i = function
    | [] -> []
    | x :: rest -> if i = 0 then [] else x :: take (i - 1) rest
  in
  take t.succ_list l

let bootstrap t ~addr =
  let n = make_node t ~addr in
  n.succs <- [ n ];
  n.pred <- Some n;
  Array.fill n.fingers 0 t.m (Some n);
  n

let init_fingers t n =
  for i = 0 to t.m - 1 do
    let start = (n.key + (1 lsl i)) mod t.space in
    let s, _ = find_successor t ~from:n start in
    n.fingers.(i) <- Some s
  done

let splice t n succ =
  (* insert n between succ.pred and succ *)
  let pred = match succ.pred with Some p when p.alive -> p | _ -> succ in
  n.succs <- truncate_succs t (succ :: List.filter (fun x -> x != n) succ.succs);
  n.pred <- Some pred;
  succ.pred <- Some n;
  if pred != n then begin
    pred.succs <- truncate_succs t (n :: List.filter (fun x -> x != pred) pred.succs);
    charge t n pred;
    charge t n succ
  end;
  (* take over pointers now owned by n: keys in (pred.key, n.key] *)
  let moving =
    Hashtbl.fold
      (fun k v acc ->
        if in_interval t ~a:pred.key ~b:n.key k || pred == succ then (k, v) :: acc
        else acc)
      succ.pointers []
  in
  List.iter
    (fun (k, v) ->
      if in_interval t ~a:pred.key ~b:n.key k then begin
        Hashtbl.remove succ.pointers k;
        Hashtbl.replace n.pointers k v;
        Simnet.Cost.message t.cost ~dist:(dist t succ n)
      end)
    moving

let join t ~gateway ~addr =
  let n = make_node t ~addr in
  charge t n gateway;
  let succ, _ = find_successor t ~from:gateway n.key in
  splice t n succ;
  init_fingers t n;
  n

let stabilize node t =
  if node.alive then begin
    let succ = successor node in
    (* adopt succ.pred if it sits between us and succ *)
    (match succ.pred with
    | Some p
      when p.alive && p != node && in_interval t ~a:node.key ~b:succ.key p.key
           && p.key <> succ.key ->
        charge t node p;
        node.succs <- truncate_succs t (p :: node.succs)
    | _ -> ());
    let succ = successor node in
    charge t node succ;
    (match succ.pred with
    | Some p when p.alive && in_interval t ~a:p.key ~b:succ.key node.key ->
        succ.pred <- Some node
    | None -> succ.pred <- Some node
    | Some p when not p.alive -> succ.pred <- Some node
    | Some _ -> ());
    (* refresh successor list from successor's list *)
    node.succs <-
      truncate_succs t
        (successor node :: List.filter (fun x -> x.alive) (successor node).succs)
  end

let fix_fingers node t =
  if node.alive then
    for i = 0 to t.m - 1 do
      let start = (node.key + (1 lsl i)) mod t.space in
      let s, _ = find_successor t ~from:node start in
      node.fingers.(i) <- Some s
    done

let stabilize_all t ~rounds =
  for _ = 1 to rounds do
    List.iter (fun n -> stabilize n t) (nodes t);
    List.iter (fun n -> fix_fingers n t) (nodes t)
  done

let publish t ~server ~guid_key =
  let owner, _ = find_successor t ~from:server guid_key in
  let existing = Option.value ~default:[] (Hashtbl.find_opt owner.pointers guid_key) in
  Hashtbl.replace owner.pointers guid_key (server.addr :: existing)

let locate t ~from ~guid_key =
  let owner, _ = find_successor t ~from guid_key in
  match Hashtbl.find_opt owner.pointers guid_key with
  | Some (addr :: _ as addrs) ->
      (* forward to the replica closest to the owner *)
      let best =
        List.fold_left
          (fun acc a ->
            let d = Simnet.Metric.dist t.metric owner.addr a in
            match acc with Some (_, bd) when bd <= d -> acc | _ -> Some (a, d))
          None addrs
      in
      let addr, d = match best with Some (a, d) -> (a, d) | None -> (addr, 0.) in
      Simnet.Cost.send t.cost ~dist:d;
      List.find_opt (fun n -> n.addr = addr && n.alive) t.members
  | _ -> None

let table_size n =
  (* distinct routing entries: in a small ring most fingers coincide, so the
     meaningful space figure is the number of distinct neighbors known *)
  let seen = Hashtbl.create 16 in
  Array.iter
    (function Some f -> Hashtbl.replace seen f.key () | None -> ())
    n.fingers;
  List.iter (fun s -> Hashtbl.replace seen s.key ()) n.succs;
  (match n.pred with Some p -> Hashtbl.replace seen p.key () | None -> ());
  Hashtbl.length seen

let check_ring t =
  match nodes t with
  | [] -> true
  | first :: _ as all ->
      let count = List.length all in
      (* follow successors from [first]; the ring is whole iff we see every
         node before returning to the start *)
      let rec walk n visited =
        let s = successor n in
        if s == first then visited
        else if visited > count then visited
        else walk s (visited + 1)
      in
      walk first 1 = count
