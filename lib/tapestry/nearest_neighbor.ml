type trace = {
  levels_walked : int;
  nodes_contacted : int;
  tables_updated : int;
  holes_backfilled : int;
}

(* Theorem 4's update rule: every contacted node checks whether the joining
   node improves its own table. *)
let add_to_table_if_closer net ~(contacted : Node.t) ~(new_node : Node.t) =
  Network.offer_link_all_levels net ~owner:contacted ~candidate:new_node > 0

(* --- the descent on the network scratch struct ---

   All per-step state lives in Network.scratch (DESIGN.md §8.7): the
   candidate set is deduplicated with a generation stamp over arena handles
   instead of a hashtable, distances to the joiner are memoized per handle
   for the whole descent, and the k closest are chosen by an in-place
   bounded max-heap over the candidate buffer instead of sorting a fresh
   keyed list.  Charge order, table-update order and the selected sets are
   identical to the list-based reference in test/oracle (ties between
   exactly-equal distances may order differently; distances are jittered
   floats, and the differential suite checks equality empirically). *)

(* Select the [k] candidates closest to the joiner from [s.cand], leaving
   them in ascending distance order in [s.sel]; returns how many.  Bounded
   max-heap: the root is the worst of the current best-k, so a beaten
   candidate costs one comparison and a winner one sift. *)
let heap_swap (sel : int array) i j =
  let t = sel.(i) in
  sel.(i) <- sel.(j);
  sel.(j) <- t

let rec heap_up (dist : float array) sel i =
  if i > 0 then begin
    let p = (i - 1) / 2 in
    if dist.(sel.(p)) < dist.(sel.(i)) then begin
      heap_swap sel p i;
      heap_up dist sel p
    end
  end

let rec heap_down (dist : float array) sel i n =
  let l = (2 * i) + 1 in
  if l < n then begin
    let c =
      if l + 1 < n && dist.(sel.(l + 1)) > dist.(sel.(l)) then l + 1 else l
    in
    if dist.(sel.(c)) > dist.(sel.(i)) then begin
      heap_swap sel c i;
      heap_down dist sel c n
    end
  end

let select_k_closest (s : Scratch.t) ~k =
  Scratch.ensure_sel s ~k;
  let sel = s.Scratch.sel in
  let dist = s.Scratch.dist in
  (* [@alloc_ok]: one counter cell per selection call *)
  let[@alloc_ok] m = ref 0 in
  let cand = s.Scratch.cand in
  for idx = 0 to s.Scratch.cand_len - 1 do
    let h = cand.(idx) in
    if !m < k then begin
      sel.(!m) <- h;
      incr m;
      heap_up dist sel (!m - 1)
    end
    else if k > 0 && dist.(h) < dist.(sel.(0)) then begin
      sel.(0) <- h;
      heap_down dist sel 0 k
    end
  done;
  (* heapsort the survivors: extract the max to the end repeatedly *)
  for i = !m - 1 downto 1 do
    heap_swap sel 0 i;
    heap_down dist sel 0 i
  done;
  !m

(* Memoize the joiner's distance to [n] (arena handle [h]) for the
   descent generation [dgen]. *)
let memo_dist net (s : Scratch.t) ~(new_node : Node.t) ~dgen h n =
  if s.Scratch.dist_stamp.(h) <> dgen then begin
    s.Scratch.dist.(h) <- Network.dist net new_node n;
    s.Scratch.dist_stamp.(h) <- dgen
  end

(* Offer the node with arena handle [h] to one GETNEXTLIST step's
   candidate set: stamp-dedup it under [vgen] before loading its record
   (most pointers a step reads name a node it has already seen), keep it
   if it is alive, not the joiner and shares [level] digits with it, and
   memoize its distance to the joiner under [dgen].  Top-level with every
   operand passed in, so the step builds no closure. *)
let note net (s : Scratch.t) ~(new_node : Node.t) ~level ~vgen ~dgen h =
  if s.Scratch.stamp.(h) <> vgen then begin
    s.Scratch.stamp.(h) <- vgen;
    let n = Network.node_of_handle net h in
    if
      Node.is_alive n
      && h <> new_node.Node.handle
      && Node_id.common_prefix_len n.Node.id new_node.Node.id >= level
    then begin
      memo_dist net s ~new_node ~dgen h n;
      Scratch.push_cand s h
    end
  end

(* One GETNEXTLIST step over the handles in [s.cur]: collect forward and
   backward pointers at [level] (both read by index off the packed table),
   stamp-dedup, memoize distances under [dgen], and leave the k closest in
   [s.sel] (ascending).  Returns the selection size. *)
let step net ~(new_node : Node.t) ~level ~update_tables ~k ~dgen =
  let s = net.Network.scratch in
  Scratch.ensure_handles s ~n:net.Network.arena_len;
  let vgen = Scratch.bump_visit s in
  s.Scratch.cand_len <- 0;
  for i = 0 to s.Scratch.cur_len - 1 do
    let h = s.Scratch.cur.(i) in
    let n = Network.node_of_handle net h in
    (* round trip: ask n for its forward and backward pointers *)
    Network.charge_aside net new_node n;
    Network.charge_aside net n new_node;
    if update_tables then
      ignore (add_to_table_if_closer net ~contacted:n ~new_node);
    note net s ~new_node ~level ~vgen ~dgen h;
    let table = n.Node.table in
    for digit = 0 to Routing_table.base table - 1 do
      for kk = 0 to Routing_table.slot_len table ~level ~digit - 1 do
        note net s ~new_node ~level ~vgen ~dgen
          (Routing_table.slot_handle table ~level ~digit ~k:kk)
      done
    done;
    for kk = 0 to Routing_table.backpointer_len table ~level - 1 do
      note net s ~new_node ~level ~vgen ~dgen
        (Routing_table.backpointer_handle table ~level ~k:kk)
    done
  done;
  select_k_closest s ~k

(* [@alloc_ok]: one index cell and one closure per descent seeding. *)
let[@alloc_ok] load_cur (s : Scratch.t) list =
  let len = List.length list in
  if len > Array.length s.Scratch.cur then
    s.Scratch.cur <- Array.make (max len 64) 0;
  let i = ref 0 in
  List.iter
    (fun (n : Node.t) ->
      s.Scratch.cur.(!i) <- n.Node.handle;
      incr i)
    list;
  s.Scratch.cur_len <- len

(* [@alloc_ok]: the result list is the API contract; everything between
   [load_cur] and the cons-out loop runs on scratch buffers. *)
let[@alloc_ok] get_next_list ?(update_tables = true) net ~(new_node : Node.t)
    ~level list ~k =
  let s = net.Network.scratch in
  Scratch.ensure_handles s ~n:net.Network.arena_len;
  load_cur s list;
  let dgen = Scratch.bump_dist s in
  let m = step net ~new_node ~level ~update_tables ~k ~dgen in
  let res = ref [] in
  for i = m - 1 downto 0 do
    res := Network.node_of_handle net s.Scratch.sel.(i) :: !res
  done;
  !res

(* Deterministic backstop for Property 1: probe every still-empty slot at
   levels up to the surrogate prefix via surrogate routing, which finds a
   matching node iff one exists (Theorem 2's maximal-prefix property):
   [Route.probe_hole], started at the surrogate. *)
let fill_holes net ~(new_node : Node.t) ~(surrogate : Node.t) ~max_level =
  let cfg = net.Network.config in
  (* [@alloc_ok]: one counter cell per backstop pass *)
  let[@alloc_ok] filled = ref 0 in
  for level = 0 to min max_level (cfg.Config.id_digits - 1) do
    for digit = 0 to cfg.Config.base - 1 do
      if Routing_table.is_hole new_node.Node.table ~level ~digit then
        match
          Route.probe_hole net ~from:surrogate ~owner:new_node ~level ~digit
        with
        | Some root ->
            if Network.offer_link net ~owner:new_node ~level ~candidate:root then
              incr filled;
            ignore (add_to_table_if_closer net ~contacted:root ~new_node)
        | None -> ()
    done
  done;
  !filled

(* One complete descent at width [k]; returns the trace pieces and the
   closest node of the final (level 0) list.  The level list lives in
   [s.cur] between steps; the distance memo is valid for the whole descent
   (one [dgen]) because the metric is static and the joiner is fixed.
   The steps run with [update_tables:false]: each level-list node was
   offered the joiner just after its selection, and nothing in a descent
   removes an entry or offers its table anything else, so a repeat is an
   exact no-op ([known] in place, or [rejected]). *)
(* [@alloc_ok]: per-descent seeding (one closure over the distance memo)
   and the trace pieces in the result; the level steps run on scratch. *)
let[@alloc_ok] run_descent net ~(new_node : Node.t) ~max_level ~initial_list ~k
    ~contacted ~updated =
  let s = net.Network.scratch in
  Scratch.ensure_handles s ~n:net.Network.arena_len;
  let dgen = Scratch.bump_dist s in
  s.Scratch.cand_len <- 0;
  List.iter
    (fun (m : Node.t) ->
      let h = m.Node.handle in
      if Node.is_alive m && h <> new_node.Node.handle then begin
        memo_dist net s ~new_node ~dgen h m;
        Scratch.push_cand s h
      end)
    initial_list;
  let m0 = select_k_closest s ~k in
  Scratch.set_cur s s.Scratch.sel m0;
  for i = 0 to s.Scratch.cur_len - 1 do
    ignore
      (Network.offer_link_all_levels net ~owner:new_node
         ~candidate:(Network.node_of_handle net s.Scratch.cur.(i)))
  done;
  for i = 0 to s.Scratch.cur_len - 1 do
    if
      add_to_table_if_closer net
        ~contacted:(Network.node_of_handle net s.Scratch.cur.(i))
        ~new_node
    then incr updated
  done;
  let levels = ref 0 in
  for level = max_level - 1 downto 0 do
    incr levels;
    let m = step net ~new_node ~level ~update_tables:false ~k ~dgen in
    contacted := !contacted + s.Scratch.cur_len;
    for i = 0 to m - 1 do
      if
        add_to_table_if_closer net
          ~contacted:(Network.node_of_handle net s.Scratch.sel.(i))
          ~new_node
      then incr updated
    done;
    for i = 0 to m - 1 do
      ignore
        (Network.offer_link_all_levels net ~owner:new_node
           ~candidate:(Network.node_of_handle net s.Scratch.sel.(i)))
    done;
    Scratch.set_cur s s.Scratch.sel m
  done;
  ( !levels,
    if s.Scratch.cur_len > 0 then
      Some (Network.node_of_handle net s.Scratch.cur.(0))
    else None )

(* [@alloc_ok]: per-join trace accumulation (counter cells, the result
   record, the adaptive-k driver's closure). *)
let[@alloc_ok] acquire_neighbor_table ?(adaptive = false) net
    ~(new_node : Node.t) ~(surrogate : Node.t) ~initial_list =
  let n = Network.node_count net in
  let base_k = Config.scaled_k net.Network.config ~n in
  let max_level =
    Node_id.common_prefix_len new_node.Node.id surrogate.Node.id
  in
  let contacted = ref 0 in
  let updated = ref 0 in
  let levels = ref 0 in
  if not adaptive then begin
    let l, _ =
      run_descent net ~new_node ~max_level ~initial_list ~k:base_k ~contacted
        ~updated
    in
    levels := l
  end
  else begin
    (* The dynamic-k variant the paper cites ([14], Section 6.2): start
       narrow and double the width until the reported nearest neighbor is
       stable across consecutive widths — robust when the expansion
       constant is larger than b supports. *)
    let rec stabilize k prev tries =
      let l, head =
        run_descent net ~new_node ~max_level ~initial_list ~k ~contacted
          ~updated
      in
      levels := !levels + l;
      match (prev, head) with
      | Some (a : Node.t), Some b when Node_id.equal a.Node.id b.Node.id -> ()
      | _, head when tries > 0 && 2 * k <= Network.node_count net ->
          stabilize (2 * k) head (tries - 1)
      | _ -> ()
    in
    stabilize (max 4 (base_k / 4)) None 5
  end;
  let holes = fill_holes net ~new_node ~surrogate ~max_level in
  {
    levels_walked = !levels;
    nodes_contacted = !contacted;
    tables_updated = !updated;
    holes_backfilled = holes;
  }

(* [@alloc_ok]: a maintenance-time query; one best-so-far cell and a pair
   per improvement. *)
let[@alloc_ok] nearest_neighbor net ~(from : Node.t) =
  (* Property 2's static solution: the closest entry among the level-0
     neighbor sets. *)
  let table = from.Node.table in
  let best = ref None in
  for digit = 0 to Routing_table.base table - 1 do
    for k = 0 to Routing_table.slot_len table ~level:0 ~digit - 1 do
      let h = Routing_table.slot_handle table ~level:0 ~digit ~k in
      let n = Network.node_of_handle net h in
      if h <> from.Node.handle && Node.is_alive n then begin
        let d = Network.dist net from n in
        match !best with
        | Some (_, bd) when bd <= d -> ()
        | _ -> best := Some (n, d)
      end
    done
  done;
  Option.map fst !best
