type outcome = { roots : Node.t list; path_lengths : int list }

(* The folds below keep their state in cells their callback captures,
   so every hop answers this one static value. *)
let keep_walking = `Continue ()

let deposit net (node : Node.t) ~guid ~server ~root_idx ~previous =
  let expires = net.Network.clock +. net.Network.config.Config.pointer_ttl in
  ignore
    (Pointer_store.store node.Node.pointers ~guid ~server ~root_idx ~previous
       ~expires)

(* One publish hop: deposit a pointer at [node] naming the hop before
   it ([prev]); [hops] counts the nodes visited so far. *)
let deposit_hop net ~on_secondaries ~salted ~guid ~srv ~root_idx prev hops ()
    (node : Node.t) =
  deposit net node ~guid ~server:srv ~root_idx ~previous:!prev;
  if on_secondaries then begin
    (* PRR-style: the pointer also lands on the secondaries of the slot
       about to be crossed; approximate by offering to every secondary
       this node knows at the level just resolved. *)
    let cfg = net.Network.config in
    let level = min !hops (cfg.Config.id_digits - 1) in
    let digit = Node_id.digit salted level in
    let table = node.Node.table in
    for k = 0 to Routing_table.slot_len table ~level ~digit - 1 do
      let sec =
        Network.node_of_handle net
          (Routing_table.slot_handle table ~level ~digit ~k)
      in
      if Node.is_alive sec && sec.Node.handle <> node.Node.handle then begin
        Network.charge_aside net node sec;
        deposit net sec ~guid ~server:srv ~root_idx ~previous:node.Node.handle
      end
    done
  end;
  prev := node.Node.handle;
  incr hops;
  keep_walking

let walk_one_root ?(on_secondaries = false) net ~(server : Node.t) guid
    ~root_idx =
  let salted = Network.salted net guid root_idx in
  (* [@alloc_ok]: the two cells, the hop callback and the result pair,
     once per walk *)
  let[@alloc_ok] prev = ref Node.no_handle in
  let[@alloc_ok] hops = ref 0 in
  let[@alloc_ok] f =
    deposit_hop net ~on_secondaries ~salted ~guid ~srv:server.Node.handle
      ~root_idx prev hops
  in
  (* Fold along the root path, depositing a pointer at every node. *)
  let root, (), _ = Route.fold_path net ~from:server salted ~init:() ~f in
  ((root, !hops - 1) [@alloc_ok])

(* [@alloc_ok]: the outcome record and its two lists, once per publish *)
let[@alloc_ok] walk_all ?on_secondaries net ~server guid =
  let results =
    List.init net.Network.config.Config.root_set_size (fun root_idx ->
        walk_one_root ?on_secondaries net ~server guid ~root_idx)
  in
  { roots = List.map fst results; path_lengths = List.map snd results }

let publish ?on_secondaries net ~server guid =
  Node.add_replica server guid;
  walk_all ?on_secondaries net ~server guid

let republish net ~server guid = walk_all net ~server guid

(* [place]'s state.  [buf] holds every path's hops, four bytes each
   (handles are below 2^31); a path's first hop, its server, is stored
   as [-1 - handle] to mark where the path starts.  [records.(h)] and
   [guids.(h)] count the deposits and the distinct objects bound for
   store [h], and [last.(h)] is the last object counted there. *)
type placement = {
  buf : Bytes.t;
  mutable len : int;
  mutable obj : int;
  records : int array;
  guids : int array;
  last : int array;
}

let hop p i = Int32.to_int (Bytes.get_int32_ne p.buf (4 * i))
let set_hop p i h = Bytes.set_int32_ne p.buf (4 * i) (Int32.of_int h)

(* One routed hop of object [p.obj]: record it and count it. *)
let record_hop p () (node : Node.t) =
  let h = node.Node.handle in
  set_hop p p.len h;
  p.len <- p.len + 1;
  p.records.(h) <- p.records.(h) + 1;
  if p.last.(h) <> p.obj then begin
    p.last.(h) <- p.obj;
    p.guids.(h) <- p.guids.(h) + 1
  end;
  keep_walking

(* Deposit the recorded hops from [i] on, in the order they were
   routed; [path] numbers the path hop [i - 1] is on and [previous] is
   that hop's handle. *)
let rec deposit_from net p ~servers ~guids ~roots ~expires i path previous =
  if i < p.len then begin
    let x = hop p i in
    let path = if x < 0 then path + 1 else path in
    let h = if x < 0 then -1 - x else x in
    let o = path / roots in
    ignore
      (Pointer_store.store (Network.node_of_handle net h).Node.pointers
         ~guid:guids.(o) ~server:servers.(o).Node.handle
         ~root_idx:(path mod roots)
         ~previous:(if x < 0 then Node.no_handle else previous)
         ~expires
        : int);
    deposit_from net p ~servers ~guids ~roots ~expires (i + 1) path h
  end

let place net ~servers guids =
  let cfg = net.Network.config in
  let roots = cfg.Config.root_set_size in
  let objects = Array.length guids in
  if Array.length servers <> objects then
    invalid_arg "Publish.place: servers and guids differ in length";
  let n = net.Network.arena_len in
  (* [@alloc_ok]: the one hop buffer (a path has at most
     [id_digits + 1] nodes; left uninitialised, so only the pages the
     paths reach become resident), the per-store counters and the hop
     callback, once per placement *)
  let[@alloc_ok] p =
    {
      buf = Bytes.create (4 * objects * roots * (cfg.Config.id_digits + 1));
      len = 0;
      obj = 0;
      records = Array.make n 0;
      guids = Array.make n 0;
      last = Array.make n (-1);
    }
  in
  let[@alloc_ok] f = record_hop p in
  (* Route every path in publish order.  No walk reads a pointer store,
     so the deposits can wait until every store is sized. *)
  for o = 0 to objects - 1 do
    let server = servers.(o) in
    Node.add_replica server guids.(o);
    p.obj <- o;
    for root_idx = 0 to roots - 1 do
      let start = p.len in
      let _, (), _ =
        Route.fold_path net ~from:server (Network.salted net guids.(o) root_idx)
          ~init:() ~f
      in
      set_hop p start (-1 - hop p start)
    done
  done;
  for h = 0 to n - 1 do
    if p.records.(h) > 0 then
      Pointer_store.reserve (Network.node_of_handle net h).Node.pointers
        ~guids:p.guids.(h) p.records.(h)
  done;
  deposit_from net p ~servers ~guids ~roots
    ~expires:(net.Network.clock +. cfg.Config.pointer_ttl)
    0 (-1) Node.no_handle

(* One unpublish hop: drop [server]'s pointer for [guid] at [node]. *)
let retract_hop ~guid ~server ~root_idx () (node : Node.t) =
  ignore (Pointer_store.remove node.Node.pointers ~guid ~server ~root_idx : bool);
  keep_walking

let unpublish net ~(server : Node.t) guid =
  let cfg = net.Network.config in
  Node.remove_replica server guid;
  (* Retract cached shortcuts: bumping the (object, server) pair epoch
     lazily invalidates every cache entry naming THIS server for the
     object (Obj_cache / DESIGN.md §10); entries for the object's other
     replicas stay valid.  [find_key] rather than [intern]: never
     create a key here. *)
  (match net.Network.obj_cache with
  | Some c ->
      let key = Obj_cache.find_key c guid in
      if key >= 0 then Obj_cache.bump_epoch c ~key ~srv:server.Node.handle
  | None -> ());
  for root_idx = 0 to cfg.Config.root_set_size - 1 do
    let salted = Network.salted net guid root_idx in
    (* [@alloc_ok]: the hop callback, once per walk *)
    let[@alloc_ok] f = retract_hop ~guid ~server:server.Node.handle ~root_idx in
    let _, (), _ = Route.fold_path net ~from:server salted ~init:() ~f in
    ()
  done
