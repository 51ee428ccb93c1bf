type t = {
  config : Config.t;
  metric : Simnet.Metric.t;
  nodes : Node.t Node_id.Tbl.t;
  mutable arena : Node.t array;
  mutable arena_len : int;
  names : Routing_table.names;
  mutable alive_arr : Node.t array;
  mutable alive_len : int;
  alive_slot : int Node_id.Tbl.t;
  salts : Node_id.t array Node_id.Tbl.t;
  scratch : Scratch.t;
  mutable rng : Simnet.Rng.t;
  cost : Simnet.Cost.acc;
  mutable clock : float;
  mutable obj_cache : Obj_cache.t option;
}

(* [@alloc_ok]: once per network. *)
let[@alloc_ok] create ?(seed = 42) config metric =
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
    arena = [||];
    arena_len = 0;
    names = { Routing_table.ids = [||] };
    alive_arr = [||];
    alive_len = 0;
    alive_slot = Node_id.Tbl.create cap;
    salts = Node_id.Tbl.create 64;
    scratch = Scratch.create ();
    rng = Simnet.Rng.create seed;
    cost = Simnet.Cost.make ();
    clock = 0.;
    obj_cache = None;
  }

(* [@inline] down from [Metric.dist]: a distance reaches the caller's
   comparison, [Scratch.dist] cell or cost cell unboxed. *)
let[@inline] dist t (a : Node.t) (b : Node.t) =
  Simnet.Metric.dist t.metric a.addr b.addr

let[@inline] charge t a b = Simnet.Cost.send t.cost ~dist:(dist t a b)

let[@inline] charge_aside t a b = Simnet.Cost.message t.cost ~dist:(dist t a b)

(* [@alloc_ok]: experiment accounting around a whole operation; the
   snapshots and the result pair are its contract. *)
let[@alloc_ok] measure t f =
  let before = Simnet.Cost.snapshot t.cost in
  let r = f () in
  (r, Simnet.Cost.diff t.cost before)

(* [@alloc_ok]: verification walks only; the finaliser closure is
   [Fun.protect]'s. *)
let[@alloc_ok] without_charging t f =
  let s = Simnet.Cost.snapshot t.cost in
  Fun.protect
    ~finally:(fun () -> Simnet.Cost.restore t.cost s)
    f

let find t id = Node_id.Tbl.find_opt t.nodes id

let node_of_handle t h = t.arena.(h)

(* [@alloc_ok]: once per identifier (and again only for an index past
   the root set): its row psi_1 .. psi_(R-1), R the root-set size. *)
let[@alloc_ok] salt_row t id i =
  let len = max (t.config.Config.root_set_size - 1) i in
  let row = Array.init len (fun k -> Node_id.salt ~base:t.config.Config.base id (k + 1)) in
  Node_id.Tbl.replace t.salts id row;
  row

(* A memo hit allocates nothing: [Not_found] is a constant exception. *)
let salted t id i =
  if i = 0 then id
  else begin
    let row = try Node_id.Tbl.find t.salts id with Not_found -> [||] in
    if i <= Array.length row then row.(i - 1) else (salt_row t id i).(i - 1)
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
    let arr = Array.make cap node and ids = Array.make cap node.id in
    Array.blit t.arena 0 arr 0 t.arena_len;
    Array.blit t.names.ids 0 ids 0 t.arena_len;
    t.arena <- arr;
    t.names.ids <- ids
  end;
  t.arena.(t.arena_len) <- node;
  t.names.ids.(t.arena_len) <- node.id;
  node.handle <- t.arena_len;
  Routing_table.set_owner_handle node.table t.names t.arena_len;
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
  push_arena t node;
  push_alive t node

let mark_dead t (node : Node.t) =
  if Node.is_alive node then begin
    node.status <- Dead;
    remove_alive t node
  end

(* --- status transitions --- *)

let activate _t (node : Node.t) =
  match node.status with
  | Node.Inserting -> node.status <- Node.Active
  | Node.Active -> ()
  | Node.Leaving | Node.Dead ->
      invalid_arg "Network.activate: node already left the mesh"

let begin_leaving _t (node : Node.t) =
  match node.status with
  | Node.Active ->
      (* Leaving nodes stay core: they serve in-flight traffic (Section
         5.1). *)
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
   state: routing tables, metric, arena.  With [rng] restored
   by the caller to a matching snapshot, a deterministic campaign
   replayed on the cleared mesh is bit-identical to one on a fresh
   build — the serve bench reuses one n=65536 mesh across its rows this
   way instead of re-paying the ~140 s construction per row.
   [@alloc_ok]: once per campaign. *)
let[@alloc_ok] clear_soft_state t =
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

(* [@alloc_ok]: the list is the contract; repair sweeps and oracles only. *)
let[@alloc_ok] core_nodes t =
  let acc = ref [] in
  iter_alive t (fun n -> if Node.is_core n then acc := n :: !acc);
  List.sort (fun (a : Node.t) (b : Node.t) -> Node_id.compare b.id a.id) !acc

let node_count t = t.alive_len

let random_alive t =
  if t.alive_len = 0 then invalid_arg "Network.random_alive: no alive node"
  else t.alive_arr.(Simnet.Rng.int t.rng t.alive_len)

(* [@alloc_ok]: one draw per join; the message is built only on failure. *)
let[@alloc_ok] fresh_id t =
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
    Routing_table.add_backpointer c.table ~level o.handle;
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

let rec link_levels t ~owner ~candidate ~d ~top level added =
  if level > top then added
  else
    link_levels t ~owner ~candidate ~d ~top (level + 1)
      (if link_at_level t ~owner ~level ~candidate ~d then added + 1 else added)

(* The equality, liveness and shared-prefix gates hold for every level up
   to the shared prefix at once, so they run once per candidate; only the
   table update runs per level. *)
let offer_link_all_levels t ~owner ~candidate =
  let o = (owner : Node.t) and c = (candidate : Node.t) in
  if Node_id.equal o.id c.id || not (accepts_links c) then 0
  else
    link_levels t ~owner ~candidate ~d:(dist t o c)
      ~top:(Int.min (Node_id.common_prefix_len o.id c.id) (t.config.id_digits - 1))
      0 0

(* [@alloc_ok]: the found-levels list is {!Routing_table.remove}'s
   contract; once per dropped link (departure or dead-neighbour repair). *)
let[@alloc_ok] drop_link t ~owner ~target =
  let o = (owner : Node.t) in
  match find t target with
  | Some tgt ->
      let levels = Routing_table.remove o.table tgt.handle in
      List.iter
        (fun level ->
          Routing_table.remove_backpointer ~handle:o.handle tgt.table ~level o.id)
        levels;
      levels
  | None -> []

(* Alive neighbours of [owner] at [level], in (digit, rank) order.
   [@alloc_ok]: the list is the contract; once per repaired hole or
   optimized level. *)
let[@alloc_ok] live_neighbours t (owner : Node.t) ~level =
  let table = owner.table and acc = ref [] in
  for digit = Routing_table.base table - 1 downto 0 do
    for k = Routing_table.slot_len table ~level ~digit - 1 downto 0 do
      let m = node_of_handle t (Routing_table.slot_handle table ~level ~digit ~k) in
      if m.handle <> owner.handle && Node.is_alive m then acc := m :: !acc
    done
  done;
  !acc

(* --- resident-size accounting (estimates; see DESIGN.md §8.8) --- *)

type footprint = {
  node_bytes : int;
  table_bytes : int;
  pointer_bytes : int;
  directory_bytes : int;
  metric_bytes : int;
  scratch_bytes : int;
  total_bytes : int;
}

let word = 8

let tbl_bytes ~len ~binding_words =
  ((5 + 1 + max 16 len) * word) + (len * (3 + binding_words) * word)

(* [@alloc_ok]: accounting, once per report. *)
let[@alloc_ok] memory_footprint t =
  let cfg = t.config in
  let node_bytes = ref 0 and table_bytes = ref 0 and pointer_bytes = ref 0 in
  iter_registered t (fun (n : Node.t) ->
      let replicas = Node_id.Tbl.length n.replicas in
      node_bytes :=
        !node_bytes
        + (9 * word)
        + tbl_bytes ~len:replicas ~binding_words:0;
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
    + ((Array.length t.names.ids + 1) * word)
    + ((Array.length t.alive_arr + 1) * word)
    + tbl_bytes ~len:(Node_id.Tbl.length t.salts)
        ~binding_words:(1 + max 0 (cfg.Config.root_set_size - 1))
  in
  let metric_bytes = Simnet.Metric.approx_bytes t.metric in
  let scratch_bytes = Scratch.approx_bytes t.scratch in
  let total_bytes =
    !node_bytes + !table_bytes + !pointer_bytes + directory_bytes + metric_bytes
    + scratch_bytes
  in
  {
    node_bytes = !node_bytes;
    table_bytes = !table_bytes;
    pointer_bytes = !pointer_bytes;
    directory_bytes;
    metric_bytes;
    scratch_bytes;
    total_bytes;
  }
