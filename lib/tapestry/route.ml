type variant = Native | Prr_like

let equal_variant a b =
  match a with
  | Native -> ( match b with Native -> true | Prr_like -> false)
  | Prr_like -> ( match b with Prr_like -> true | Native -> false)

type info = { root : Node.t; path : Node.t list; surrogate_hops : int }

let default_on_dead net ~owner ~dead =
  ignore (Network.drop_link net ~owner ~target:dead)

(* Pick the first alive entry of a slot, lazily purging dead ones (each purge
   costs a probe message: the paper's timeout-based failure detection).
   Entries resolve through the network's handle arena — one array read, no
   hashing, no slot-list allocation.  The scan restarts after a purge
   because [on_dead] may rewrite the slot arbitrarily. *)
let rec first_alive net on_dead skip (owner : Node.t) ~level ~digit =
  scan net on_dead skip owner ~level ~digit
    ~len:(Routing_table.slot_len owner.Node.table ~level ~digit)
    ~k:0

and scan net on_dead skip (owner : Node.t) ~level ~digit ~len ~k =
  if k >= len then None
  else begin
    let h = Routing_table.slot_handle owner.Node.table ~level ~digit ~k in
    if skip h then scan net on_dead skip owner ~level ~digit ~len ~k:(k + 1)
    else begin
      let n = Network.node_of_handle net h in
      if Node.is_alive n then Some n
      else purge net on_dead skip owner ~level ~digit ~dead:n.Node.id
    end
  end

and purge net on_dead skip (owner : Node.t) ~level ~digit ~dead =
  Simnet.Cost.message net.Network.cost ~dist:0.;
  on_dead net ~owner ~dead;
  (* ensure progress even if on_dead did not remove the entry *)
  ignore (Routing_table.remove owner.Node.table dead);
  first_alive net on_dead skip owner ~level ~digit

(* Most-significant-bit agreement between two digits, used by the PRR-like
   variant's first-hole rule.  [bits] is the digit width, precomputed in
   [Config.digit_bits]. *)
let rec msb_agree a b i acc =
  if i < 0 then acc
  else if (a lsr i) land 1 = (b lsr i) land 1 then msb_agree a b (i - 1) (acc + 1)
  else acc

let msb_agreement ~bits a b = msb_agree a b (bits - 1) 0

type walk_state = { mutable hole_seen : bool; mutable surrogate_hops : int }

(* The native scan asks {!Routing_table.next_filled} for the next filled
   digit in wrap order instead of probing every slot, so holes — most of
   every level past the resolvable prefix — cost nothing.  The mask is
   re-read after every failed probe because [on_dead] repair may rewrite
   slots mid-scan (skipping between probes is pure, so batching the skip
   is observationally identical to the per-digit scan).  These are
   top-level functions (not closures inside [choose_next]) so a walk
   allocates nothing per level. *)
let rec native_scan net on_dead skip state (node : Node.t) ~level ~want ~base
    tries =
  let tries = Routing_table.next_filled node.Node.table ~level ~want ~tries in
  if tries < 0 then None
  else begin
    let j = want + tries in
    let j = if j >= base then j - base else j in
    match first_alive net on_dead skip node ~level ~digit:j with
    | Some n ->
        if tries > 0 then state.hole_seen <- true;
        Some n
    | None -> native_scan net on_dead skip state node ~level ~want ~base (tries + 1)
  end

(* At the first hole (PRR-like): the filled digit with the best
   most-significant-bit agreement with the wanted digit, ties to the
   numerically higher digit.  Int accumulators and an exempt [Some], so
   even this rare branch allocates nothing. *)
let rec first_hole_best net on_dead skip (node : Node.t) ~level ~want ~bits
    ~base j ~best_s ~best_j ~best =
  if j >= base then best
  else
    let cand =
      if Routing_table.filled_mask node.Node.table ~level land (1 lsl j) <> 0
      then first_alive net on_dead skip node ~level ~digit:j
      else None
    in
    match cand with
    | Some _ ->
        let s = msb_agreement ~bits want j in
        if s > best_s || (s = best_s && j > best_j) then
          first_hole_best net on_dead skip node ~level ~want ~bits ~base (j + 1)
            ~best_s:s ~best_j:j ~best:cand
        else
          first_hole_best net on_dead skip node ~level ~want ~bits ~base (j + 1)
            ~best_s ~best_j ~best
    | None ->
        first_hole_best net on_dead skip node ~level ~want ~bits ~base (j + 1)
          ~best_s ~best_j ~best

(* After the first hole (PRR-like): numerically highest filled digit. *)
let rec prr_down net on_dead skip (node : Node.t) ~level j =
  if j < 0 then None
  else if Routing_table.filled_mask node.Node.table ~level land (1 lsl j) = 0
  then prr_down net on_dead skip node ~level (j - 1)
  else
    match first_alive net on_dead skip node ~level ~digit:j with
    | Some n -> Some n
    | None -> prr_down net on_dead skip node ~level (j - 1)

(* Choose the next node at [level]; None means every slot at this level is
   empty of alive nodes (impossible while the owner is alive, since it
   occupies its own slot). *)
let choose_next net on_dead skip variant state (node : Node.t) guid ~level =
  let base = Routing_table.base node.Node.table in
  let want = Node_id.digit guid level in
  match variant with
  | Native -> native_scan net on_dead skip state node ~level ~want ~base 0
  | Prr_like ->
      let hit =
        if state.hole_seen then None
        else if
          Routing_table.filled_mask node.Node.table ~level land (1 lsl want) = 0
        then None
        else first_alive net on_dead skip node ~level ~digit:want
      in
      (match hit with
      | Some n -> Some n
      | None when not state.hole_seen ->
          state.hole_seen <- true;
          let bits = net.Network.config.Config.digit_bits in
          first_hole_best net on_dead skip node ~level ~want ~bits ~base 0
            ~best_s:(-1) ~best_j:(-1) ~best:None
      | None -> prr_down net on_dead skip node ~level (base - 1))

(* [@alloc_ok]: one walk allocates its [walk_state] record, the [walk]
   closure over it and the result tuple — a fixed handful of words per
   routed message.  The per-hop digit scans above allocate nothing. *)
let[@alloc_ok] walk_internal variant on_dead skip net ~from guid ~init ~f =
  let digits = net.Network.config.Config.id_digits in
  let state = { hole_seen = false; surrogate_hops = 0 } in
  let rec walk (node : Node.t) level acc =
    if level >= digits then (node, acc, false, state.surrogate_hops)
    else
      match choose_next net on_dead skip variant state node guid ~level with
      | None -> (node, acc, false, state.surrogate_hops)
      | Some next ->
          if next.Node.handle = node.Node.handle then walk node (level + 1) acc
          else begin
            Network.charge net node next;
            if state.hole_seen then
              state.surrogate_hops <- state.surrogate_hops + 1;
            match f acc next with
            | `Stop acc -> (next, acc, true, state.surrogate_hops)
            | `Continue acc -> walk next (level + 1) acc
          end
  in
  match f init from with
  | `Stop acc -> (from, acc, true, 0)
  | `Continue acc -> walk from 0 acc

(* [@alloc_ok] below: the public entry points build their skip predicate
   and fold callback once per operation, and [route_to_root] /
   [route_to_node] allocate the path list their callers asked for. *)
let no_skip _ = false

let[@alloc_ok] resolve_skip exclude skip =
  match (exclude, skip) with
  | Some x, None -> fun h -> Int.equal h x
  | None, Some p -> p
  | None, None -> no_skip
  | Some x, Some p -> fun h -> Int.equal h x || p h

let[@alloc_ok] fold_path ?(variant = Native) ?(on_dead = default_on_dead)
    ?exclude ?skip net ~from guid ~init ~f =
  let node, acc, stopped, _ =
    walk_internal variant on_dead (resolve_skip exclude skip) net ~from guid ~init ~f
  in
  (node, acc, stopped)

let[@alloc_ok] route_to_root ?(variant = Native) ?(on_dead = default_on_dead)
    ?exclude net ~from guid =
  let root, rev_path, _, surrogate_hops =
    walk_internal variant on_dead (resolve_skip exclude None) net ~from guid
      ~init:[] ~f:(fun path node -> `Continue (node :: path))
  in
  { root; path = List.rev rev_path; surrogate_hops }

let[@alloc_ok] route_to_node net ~from target_id =
  let final, rev_path, _ =
    fold_path net ~from target_id ~init:[] ~f:(fun path node ->
        let path = node :: path in
        if Node_id.equal node.Node.id target_id then `Stop path else `Continue path)
  in
  let path = List.rev rev_path in
  if Node_id.equal final.Node.id target_id then (Some final, path) else (None, path)

let[@alloc_ok] peek_first_hop net (node : Node.t) guid =
  let digits = net.Network.config.Config.id_digits in
  let state = { hole_seen = false; surrogate_hops = 0 } in
  let rec go level =
    if level >= digits then None
    else
      match
        choose_next net default_on_dead no_skip Native state node guid ~level
      with
      | None -> None
      | Some next ->
          if next.Node.handle = node.Node.handle then go (level + 1) else Some next
  in
  go 0

(* The probe's fold callback and its `Continue are static, and a unit
   accumulator keeps the probe's charges identical to a full walk's
   without materializing the path. *)
let probe_continue = `Continue ()
let probe_step () _ = probe_continue

(* [@alloc_ok]: the target ID and the verdict, once per probed hole. *)
let[@alloc_ok] probe_hole net ~from ~(owner : Node.t) ~level ~digit =
  let target_digits = Node_id.digits owner.Node.id in
  target_digits.(level) <- digit;
  let target = Node_id.make target_digits in
  let root, (), _ = fold_path net ~from target ~init:() ~f:probe_step in
  if
    (not (Node_id.equal root.Node.id owner.Node.id))
    && Node_id.common_prefix_len root.Node.id target >= level + 1
  then Some root
  else None
