(* Salted-GUID cache keys: (identifier, root-set index). *)
module Salt_key = struct
  type t = Node_id.t * int

  let equal (a, i) (b, j) = Int.equal i j && Node_id.equal a b

  let hash (id, i) = (Node_id.hash id * 31) + i
end

module Salt_tbl = Hashtbl.Make (Salt_key)

type t = {
  config : Config.t;
  metric : Simnet.Metric.t;
  nodes : Node.t Node_id.Tbl.t;
  index : Id_index.t;
  core_index : Id_index.t;
  mutable arena : Node.t array;
  mutable arena_len : int;
  mutable alive_arr : Node.t array;
  mutable alive_len : int;
  alive_slot : int Node_id.Tbl.t;
  salts : Node_id.t Salt_tbl.t;
  scratch : Scratch.t;
  mutable rng : Simnet.Rng.t;
  cost : Simnet.Cost.t;
  mutable clock : float;
  mutable obj_cache : Obj_cache.t option;
}

let create ?(seed = 42) config metric =
  (match Config.validate config with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Network.create: " ^ msg));
  (* Directory tables are sized for the declared population up front: at
     10^6 nodes the doubling cascade otherwise rehashes every key ~14
     times and transiently holds three copies of the bucket array. *)
  let cap = Config.table_capacity config in
  {
    config = Config.normalize config;
    metric;
    nodes = Node_id.Tbl.create cap;
    index = Id_index.create ~base:config.base;
    core_index = Id_index.create ~base:config.base;
    arena = [||];
    arena_len = 0;
    alive_arr = [||];
    alive_len = 0;
    alive_slot = Node_id.Tbl.create cap;
    salts = Salt_tbl.create 64;
    scratch = Scratch.create ();
    rng = Simnet.Rng.create seed;
    cost = Simnet.Cost.make ();
    clock = 0.;
    obj_cache = None;
  }

let dist t (a : Node.t) (b : Node.t) = Simnet.Metric.dist t.metric a.addr b.addr

let charge t a b = Simnet.Cost.send t.cost ~dist:(dist t a b)

let charge_aside t a b = Simnet.Cost.message t.cost ~dist:(dist t a b)

let measure t f =
  let before = Simnet.Cost.snapshot t.cost in
  let r = f () in
  (r, Simnet.Cost.diff (Simnet.Cost.snapshot t.cost) before)

let without_charging t f =
  let s = Simnet.Cost.snapshot t.cost in
  Fun.protect
    ~finally:(fun () ->
      t.cost.Simnet.Cost.messages <- s.Simnet.Cost.messages;
      t.cost.Simnet.Cost.hops <- s.Simnet.Cost.hops;
      t.cost.Simnet.Cost.latency <- s.Simnet.Cost.latency)
    f

let find t id = Node_id.Tbl.find_opt t.nodes id

let node_of_handle t h = t.arena.(h)

let salted t id i =
  if i = 0 then id
  else begin
    let key = (id, i) in
    match Salt_tbl.find_opt t.salts key with
    | Some s -> s
    | None ->
        let s = Node_id.salt ~base:t.config.Config.base id i in
        Salt_tbl.replace t.salts key s;
        s
  end

let find_exn t id =
  match find t id with
  | Some n -> n
  | None -> invalid_arg ("Network.find_exn: unknown node " ^ Node_id.to_string id)

(* --- node arena: append-only, one immutable int handle per node --- *)

let push_arena t (node : Node.t) =
  if t.arena_len = Array.length t.arena then begin
    (* First growth jumps straight to the declared capacity (the arrays
       need a witness element, so they cannot be pre-filled in [create]). *)
    let cap =
      max (Config.table_capacity ~floor:8 t.config) (2 * Array.length t.arena)
    in
    let arr = Array.make cap node in
    Array.blit t.arena 0 arr 0 t.arena_len;
    t.arena <- arr
  end;
  t.arena.(t.arena_len) <- node;
  node.handle <- t.arena_len;
  Routing_table.set_owner_handle node.table t.arena_len;
  t.arena_len <- t.arena_len + 1

(* --- alive set: dense array + swap-remove, so sampling is O(1) --- *)

let push_alive t (node : Node.t) =
  if t.alive_len = Array.length t.alive_arr then begin
    let cap =
      max
        (Config.table_capacity ~floor:8 t.config)
        (2 * Array.length t.alive_arr)
    in
    let arr = Array.make cap node in
    Array.blit t.alive_arr 0 arr 0 t.alive_len;
    t.alive_arr <- arr
  end;
  t.alive_arr.(t.alive_len) <- node;
  Node_id.Tbl.replace t.alive_slot node.id t.alive_len;
  t.alive_len <- t.alive_len + 1

let remove_alive t (node : Node.t) =
  match Node_id.Tbl.find_opt t.alive_slot node.id with
  | None -> ()
  | Some i ->
      let last = t.alive_len - 1 in
      if i <> last then begin
        let moved = t.alive_arr.(last) in
        t.alive_arr.(i) <- moved;
        Node_id.Tbl.replace t.alive_slot moved.id i
      end;
      Node_id.Tbl.remove t.alive_slot node.id;
      t.alive_len <- last

let register t (node : Node.t) =
  if Node_id.Tbl.mem t.nodes node.id then
    invalid_arg "Network.register: duplicate node id";
  if node.addr < 0 || node.addr >= Simnet.Metric.size t.metric then
    invalid_arg "Network.register: addr outside the metric space";
  if not (Node.is_alive node) then
    invalid_arg "Network.register: node is already dead";
  Node_id.Tbl.replace t.nodes node.id node;
  Id_index.add t.index node.id;
  push_arena t node;
  push_alive t node;
  if Node.is_core node then Id_index.add t.core_index node.id

let mark_dead t (node : Node.t) =
  if Node.is_alive node then begin
    if Node.is_core node then Id_index.remove t.core_index node.id;
    node.status <- Dead;
    Id_index.remove t.index node.id;
    remove_alive t node
  end

(* --- status transitions (the only writers of the core index) --- *)

let activate t (node : Node.t) =
  match node.status with
  | Node.Inserting ->
      node.status <- Node.Active;
      if Node_id.Tbl.mem t.nodes node.id then Id_index.add t.core_index node.id
  | Node.Active -> ()
  | Node.Leaving | Node.Dead ->
      invalid_arg "Network.activate: node already left the mesh"

let begin_leaving _t (node : Node.t) =
  match node.status with
  | Node.Active ->
      (* Leaving nodes stay core (they serve in-flight traffic, Section
         5.1), so the core index is untouched. *)
      node.status <- Node.Leaving
  | Node.Inserting | Node.Leaving | Node.Dead ->
      invalid_arg "Network.begin_leaving: node is not active"

let alive_nodes t = Array.to_list (Array.sub t.alive_arr 0 t.alive_len)

(* Worklist-free traversals: the scale tier audits and sweeps 10^5..10^6
   nodes, where materializing [alive_nodes] would allocate a cons per
   node per pass. *)
let iter_alive t f =
  for i = 0 to t.alive_len - 1 do
    f t.alive_arr.(i)
  done

let iter_registered t f =
  for h = 0 to t.arena_len - 1 do
    f t.arena.(h)
  done

(* Reset the soft state (pointer stores, replica sets, virtual clock,
   any attached object cache) while keeping the expensively built hard
   state: routing tables, indices, metric, arena.  With [rng] restored
   by the caller to a matching snapshot, a deterministic campaign
   replayed on the cleared mesh is bit-identical to one on a fresh
   build — the serve bench reuses one n=65536 mesh across its rows this
   way instead of re-paying the ~140 s construction per row. *)
let clear_soft_state t =
  iter_registered t (fun (n : Node.t) ->
      Pointer_store.clear n.pointers;
      Node_id.Tbl.reset n.replicas);
  t.clock <- 0.;
  (* an attached cache is soft state too: wipe its lines, frequency
     sketch, hint marks and pair epochs before detaching, so a caller
     that re-attaches the same structure (multi-row --cache-size /
     --coop sweeps on a shared mesh) starts from a clean slate *)
  (match t.obj_cache with Some c -> Obj_cache.reset c | None -> ());
  t.obj_cache <- None

let core_nodes t =
  Id_index.ids_with_prefix t.core_index ~prefix:[||] ~len:0
  |> List.map (find_exn t)

let node_count t = t.alive_len

let random_alive t =
  if t.alive_len = 0 then invalid_arg "Network.random_alive: no alive node"
  else t.alive_arr.(Simnet.Rng.int t.rng t.alive_len)

let fresh_id t =
  let rec go tries =
    if tries > 1000 then
      failwith
        (Printf.sprintf
           "Network.fresh_id: no unused id after %d draws (namespace %d^%d = \
            %.3g ids, %d registered)"
           tries t.config.base t.config.id_digits
           (float_of_int t.config.base ** float_of_int t.config.id_digits)
           (Node_id.Tbl.length t.nodes));
    let id = Node_id.random ~base:t.config.base ~len:t.config.id_digits t.rng in
    if Node_id.Tbl.mem t.nodes id then go (tries + 1) else id
  in
  go 0

(* --- link maintenance --- *)

(* The table update behind a link offer whose gates already passed: the
   metric distance is supplied by the caller so a multi-level batch
   measures it once (the simulated round trip is one probe however many
   levels it fills). *)
let link_at_level t ~(owner : Node.t) ~level ~(candidate : Node.t) ~d =
  let o = owner and c = candidate in
  let v =
    Routing_table.consider o.table ~level ~candidate:c.id ~handle:c.handle
      ~dist:d
  in
  if v = Routing_table.known || v = Routing_table.rejected then false
  else begin
    (* added: [c] was not in [o]'s slot, so by symmetry [o] is not among
       [c]'s holders at [level] — append without a scan *)
    Routing_table.add_backpointer c.table ~level ~handle:o.handle o.id;
    if v >= 0 then
      Routing_table.remove_backpointer ~handle:o.handle
        (node_of_handle t v).Node.table ~level o.id;
    true
  end

(* Nodes that announced departure (or died) take no new links: their
   existing entries are marked "leaving" and serve only in-flight traffic
   (Section 5.1). *)
let accepts_links (c : Node.t) =
  match c.status with Node.Leaving | Node.Dead -> false | _ -> true

let offer_link t ~owner ~level ~candidate =
  let o = (owner : Node.t) and c = (candidate : Node.t) in
  (not (Node_id.equal o.id c.id))
  && Node_id.common_prefix_len o.id c.id >= level
  && accepts_links c
  && link_at_level t ~owner ~level ~candidate ~d:(dist t o c)

(* The equality, liveness and shared-prefix gates hold for every level up
   to the shared prefix at once, so they run once per candidate; only the
   table update runs per level. *)
let offer_link_all_levels t ~owner ~candidate =
  let o = (owner : Node.t) and c = (candidate : Node.t) in
  if Node_id.equal o.id c.id || not (accepts_links c) then 0
  else begin
    let shared = Node_id.common_prefix_len o.id c.id in
    let d = dist t o c in
    let added = ref 0 in
    for level = 0 to Int.min shared (t.config.id_digits - 1) do
      if link_at_level t ~owner ~level ~candidate ~d then incr added
    done;
    !added
  end

let drop_link t ~owner ~target =
  let o = (owner : Node.t) in
  let levels = Routing_table.remove o.table target in
  (match find t target with
  | Some tgt ->
      List.iter
        (fun level -> Routing_table.remove_backpointer tgt.Node.table ~level o.id)
        levels
  | None -> ());
  levels

(* In the fold order of the [Node_id.Tbl] this replaced (16 buckets,
   doubled while the entries, dead ones too, outnumber twice the buckets):
   [Node_id.hash] buckets high to low, slot order within one.  Float cost
   totals and, after distance drift, share_tables' result follow it. *)
let live_neighbours t (owner : Node.t) ~level =
  let table = owner.table and acc = ref [] in
  for digit = Routing_table.base table - 1 downto 0 do
    for k = Routing_table.slot_len table ~level ~digit - 1 downto 0 do
      let m = node_of_handle t (Routing_table.slot_handle table ~level ~digit ~k) in
      if m.handle <> owner.handle then acc := m :: !acc
    done
  done;
  let n = List.length !acc in
  let rec buckets b = if n > 2 * b then buckets (2 * b) else b in
  let mask = buckets 16 - 1 in
  let bucket (m : Node.t) = Node_id.hash m.id land mask in
  List.stable_sort (fun a b -> Int.compare (bucket b) (bucket a)) !acc
  |> List.filter Node.is_alive

(* --- verification oracles --- *)

let check_property1 t =
  let violations = ref [] in
  List.iter
    (fun (n : Node.t) ->
      let prefix = Node_id.digits n.id in
      for level = 0 to t.config.id_digits - 1 do
        for digit = 0 to t.config.base - 1 do
          if
            Routing_table.is_hole n.table ~level ~digit
            && Id_index.exists_extension t.core_index ~prefix ~len:level ~digit
          then violations := (n, level, digit) :: !violations
        done
      done)
    (core_nodes t);
  !violations

let check_property2 t ~total ~optimal =
  List.iter
    (fun (n : Node.t) ->
      let prefix = Node_id.digits n.id in
      for level = 0 to t.config.id_digits - 1 do
        for digit = 0 to t.config.base - 1 do
          if digit <> Node_id.digit n.id level then begin
            match Routing_table.primary n.table ~level ~digit with
            | None -> ()
            | Some prim ->
                (* True closest (prefix, digit) node by brute force. *)
                let cands = Id_index.ids_with_prefix t.core_index ~prefix ~len:level in
                let cands =
                  List.filter
                    (fun id ->
                      Node_id.digit id level = digit && not (Node_id.equal id n.id))
                    cands
                in
                let best =
                  List.fold_left
                    (fun acc id ->
                      let c = find_exn t id in
                      let d = dist t n c in
                      match acc with
                      | None -> Some (id, d)
                      | Some (_, bd) -> if d < bd then Some (id, d) else acc)
                    None cands
                in
                (match best with
                | None -> ()
                | Some (best_id, best_d) ->
                    incr total;
                    let prim_d =
                      match find t prim.Routing_table.id with
                      | Some p -> dist t n p
                      | None -> infinity
                    in
                    if Node_id.equal prim.Routing_table.id best_id || prim_d <= best_d
                    then incr optimal)
          end
        done
      done)
    (core_nodes t);
  ()

let true_nearest_neighbor t (node : Node.t) =
  let best = ref None in
  let best_d = ref infinity in
  for i = 0 to t.alive_len - 1 do
    let other = t.alive_arr.(i) in
    if not (Node_id.equal other.id node.id) then begin
      let d = dist t node other in
      if d < !best_d then begin
        best := Some other;
        best_d := d
      end
    end
  done;
  !best

(* --- resident-size accounting (estimates; see DESIGN.md §8.8) --- *)

type footprint = {
  node_bytes : int;
  table_bytes : int;
  pointer_bytes : int;
  directory_bytes : int;
  index_bytes : int;
  metric_bytes : int;
  scratch_bytes : int;
  total_bytes : int;
}

let word = 8

let tbl_bytes ~len ~binding_words =
  ((5 + 1 + max 16 len) * word) + (len * (3 + binding_words) * word)

let memory_footprint t =
  let cfg = t.config in
  let id_words = 3 + cfg.Config.id_digits + 1 in
  let node_bytes = ref 0 and table_bytes = ref 0 and pointer_bytes = ref 0 in
  iter_registered t (fun (n : Node.t) ->
      let replicas = Node_id.Tbl.length n.replicas in
      node_bytes :=
        !node_bytes
        + ((9 + id_words) * word)
        + tbl_bytes ~len:replicas ~binding_words:0
        + (match n.surrogate_hint with Some _ -> 2 * word | None -> 0);
      table_bytes := !table_bytes + Routing_table.approx_bytes n.table;
      pointer_bytes := !pointer_bytes + Pointer_store.approx_bytes n.pointers);
  (* the object cache holds pointer replicas: bill it to the pointer
     bucket so the audit's O(n log n) budget covers it too *)
  (match t.obj_cache with
  | Some c -> pointer_bytes := !pointer_bytes + Obj_cache.approx_bytes c
  | None -> ());
  let directory_bytes =
    tbl_bytes ~len:(Node_id.Tbl.length t.nodes) ~binding_words:1
    + tbl_bytes ~len:(Node_id.Tbl.length t.alive_slot) ~binding_words:1
    + ((Array.length t.arena + 1) * word)
    + ((Array.length t.alive_arr + 1) * word)
    + tbl_bytes ~len:(Salt_tbl.length t.salts) ~binding_words:(3 + id_words)
  in
  let index_bytes =
    Id_index.approx_bytes t.index + Id_index.approx_bytes t.core_index
  in
  let metric_bytes = Simnet.Metric.approx_bytes t.metric in
  let scratch_bytes = Scratch.approx_bytes t.scratch in
  let total_bytes =
    !node_bytes + !table_bytes + !pointer_bytes + directory_bytes + index_bytes
    + metric_bytes + scratch_bytes
  in
  {
    node_bytes = !node_bytes;
    table_bytes = !table_bytes;
    pointer_bytes = !pointer_bytes;
    directory_bytes;
    index_bytes;
    metric_bytes;
    scratch_bytes;
    total_bytes;
  }

let surrogate_oracle t guid =
  (* Digit-by-digit refinement with wrap-around among core nodes, answered
     straight from the incrementally maintained core index; by Theorem 2
     this is the unique root surrogate routing must reach. *)
  if Id_index.size t.core_index = 0 then
    invalid_arg "Network.surrogate_oracle: empty network";
  let prefix = Array.make t.config.id_digits 0 in
  let rec refine level =
    if level = t.config.id_digits then
      find_exn t (Node_id.make (Array.copy prefix))
    else begin
      let want = Node_id.digit guid level in
      let rec scan tries =
        if tries = t.config.base then
          invalid_arg "Network.surrogate_oracle: no extension (corrupt index)"
        else begin
          let j = (want + tries) mod t.config.base in
          if Id_index.exists_extension t.core_index ~prefix ~len:level ~digit:j
          then j
          else scan (tries + 1)
        end
      in
      prefix.(level) <- scan 0;
      refine (level + 1)
    end
  in
  refine 0
