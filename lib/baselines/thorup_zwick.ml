type t = {
  metric : Simnet.Metric.t;
  n : int;
  k : int;
  pivots : int array array; (* pivots.(v).(i) = p_i(v), or -1 above the top level *)
  pivot_dist : float array array;
  bunches : int list array; (* B(v) *)
  registry : (int, (int * int) list) Hashtbl.t array;
      (* per node: guid key -> (key, server addr) registrations *)
  cost : Simnet.Cost.acc;
}

let build ?(seed = 42) ?k metric =
  let n = Simnet.Metric.size metric in
  if n < 2 then invalid_arg "Thorup_zwick.build: need at least 2 points";
  let rng = Simnet.Rng.create seed in
  let k =
    match k with
    | Some k when k >= 1 -> k
    | Some _ -> invalid_arg "Thorup_zwick.build: k must be >= 1"
    | None -> max 2 (int_of_float (ceil (log (float_of_int n) /. log 2.)))
  in
  (* A_0 superset A_1 superset ... A_{k-1}; A_k = empty *)
  let p_keep = exp (-.log (float_of_int n) /. float_of_int k) in
  let levels = Array.make_matrix k n false in
  for v = 0 to n - 1 do
    levels.(0).(v) <- true
  done;
  for i = 1 to k - 1 do
    for v = 0 to n - 1 do
      levels.(i).(v) <- levels.(i - 1).(v) && Simnet.Rng.float rng 1.0 < p_keep
    done
  done;
  (* guarantee A_{k-1} is non-empty so every pivot chain is defined *)
  if not (Array.exists (fun b -> b) levels.(k - 1)) then begin
    let v = Simnet.Rng.int rng n in
    for i = 0 to k - 1 do
      levels.(i).(v) <- true
    done
  end;
  let pivots = Array.make_matrix n k (-1) in
  let pivot_dist = Array.make_matrix n k infinity in
  for v = 0 to n - 1 do
    for i = 0 to k - 1 do
      for w = 0 to n - 1 do
        if levels.(i).(w) then begin
          let d = Simnet.Metric.dist metric v w in
          if d < pivot_dist.(v).(i) then begin
            pivot_dist.(v).(i) <- d;
            pivots.(v).(i) <- w
          end
        end
      done
    done
  done;
  (* bunches: w in A_i \ A_{i+1} joins B(v) iff d(v,w) < d(v, p_{i+1}(v));
     members of the top level join every bunch *)
  let bunches =
    Array.init n (fun v ->
        let acc = ref [] in
        for w = 0 to n - 1 do
          if w <> v then begin
            let rec level_of i = if i < k && levels.(i).(w) then level_of (i + 1) else i - 1 in
            let i = level_of 0 in
            let joins =
              if i = k - 1 then true
              else Simnet.Metric.dist metric v w < pivot_dist.(v).(i + 1)
            in
            if joins then acc := w :: !acc
          end
        done;
        !acc)
  in
  {
    metric;
    n;
    k;
    pivots;
    pivot_dist;
    bunches;
    registry = Array.init n (fun _ -> Hashtbl.create 4);
    cost = Simnet.Cost.make ();
  }

let cost t = t.cost

let k t = t.k

let space_per_node t =
  let pivot_entries = t.n * t.k in
  let bunch_entries = Array.fold_left (fun a b -> a + List.length b) 0 t.bunches in
  let reg_entries =
    Array.fold_left (fun a h -> a + Hashtbl.length h) 0 t.registry
  in
  float_of_int (pivot_entries + bunch_entries + reg_entries) /. float_of_int t.n

(* The classic ascending query: w = p_i(u); swap sides until w in B(v). *)
let approx_distance t u v =
  let dist = Simnet.Metric.dist t.metric in
  let in_bunch w v = List.exists (Int.equal w) t.bunches.(v) in
  let rec go u v i w =
    if w = v || in_bunch w v then dist u w +. dist w v
    else begin
      let i = i + 1 in
      if i >= t.k then dist u v (* defensive; cannot happen with A_{k-1} <> {} *)
      else begin
        let u, v = (v, u) in
        let w = t.pivots.(u).(i) in
        go u v i w
      end
    end
  in
  if u = v then 0. else go u v 0 t.pivots.(u).(0)

(* contact points of a node: its pivots and its bunch *)
let contacts t v =
  let acc = Hashtbl.create 16 in
  Array.iter (fun p -> if p >= 0 then Hashtbl.replace acc p ()) t.pivots.(v);
  List.iter (fun w -> Hashtbl.replace acc w ()) t.bunches.(v);
  Hashtbl.fold (fun w () l -> w :: l) acc []

let publish t ~server_addr ~guid_key =
  List.iter
    (fun w ->
      Simnet.Cost.message t.cost ~dist:(Simnet.Metric.dist t.metric server_addr w);
      let cur = Option.value ~default:[] (Hashtbl.find_opt t.registry.(w) guid_key) in
      if
        not
          (List.exists
             (fun (g, s) -> Int.equal g guid_key && Int.equal s server_addr)
             cur)
      then
        Hashtbl.replace t.registry.(w) guid_key ((guid_key, server_addr) :: cur))
    (server_addr :: contacts t server_addr)

let locate t ~client_addr ~guid_key =
  (* probe own contacts, nearest first (parallelizable; latency counts every
     round trip, as in the Section 7 scheme) *)
  let probes =
    (client_addr :: contacts t client_addr)
    |> List.map (fun w -> (Simnet.Metric.dist t.metric client_addr w, w))
    |> List.sort (fun (d1, _) (d2, _) -> Float.compare d1 d2)
  in
  let rec go = function
    | [] -> None
    | (d, w) :: rest -> (
        Simnet.Cost.send t.cost ~dist:(2. *. d);
        match Hashtbl.find_opt t.registry.(w) guid_key with
        | Some ((_, server) :: _) ->
            Simnet.Cost.send t.cost
              ~dist:(Simnet.Metric.dist t.metric client_addr server);
            Some server
        | _ -> go rest)
  in
  go probes
