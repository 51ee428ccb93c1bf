type variant = Native | Prr_like

let equal_variant a b =
  match a with
  | Native -> ( match b with Native -> true | Prr_like -> false)
  | Prr_like -> ( match b with Prr_like -> true | Native -> false)

type info = { root : Node.t; path : Node.t list; surrogate_hops : int }

let default_on_dead net ~owner ~dead =
  ignore (Network.drop_link net ~owner ~target:dead)

let no_skip _ = false

(* A step's answer is one immediate int, so a hop allocates nothing:
   the next node's handle in the low 31 bits (handles stay below 2^31),
   the hole flag above it, and the level to resume at above that.  [-1]
   is the endpoint. *)
let handle_mask = (1 lsl 31) - 1
let hole_bit = 1 lsl 31
let level_shift = 32
let step_handle r = r land handle_mask
let step_level r = r lsr level_shift

(* The first live entry of a slot, as a handle, or [-1].  [skip] is
   asked before an entry's node is read.  A dead entry goes to [dead];
   when it answers that the slot changed, the scan restarts from the
   slot's new first entry, else it moves past the dead one.  Entries
   resolve through the handle arena: one array read, no hashing. *)
let rec slot_scan net skip dead (owner : Node.t) ~level ~digit ~len k =
  if k >= len then -1
  else begin
    let h = Routing_table.slot_handle owner.Node.table ~level ~digit ~k in
    if skip h then slot_scan net skip dead owner ~level ~digit ~len (k + 1)
    else if Node.is_alive (Network.node_of_handle net h) then h
    else if dead owner h then first_alive net skip dead owner ~level ~digit
    else slot_scan net skip dead owner ~level ~digit ~len (k + 1)
  end

and first_alive net skip dead (owner : Node.t) ~level ~digit =
  slot_scan net skip dead owner ~level ~digit
    ~len:(Routing_table.slot_len owner.Node.table ~level ~digit)
    0

(* The sync tier's dead-entry hook: the paper's timeout-based failure
   detection costs a probe message, [on_dead] may repair the slot, and
   the entry is dropped in any case (so the scan always progresses). *)
let purge net on_dead (owner : Node.t) h =
  Simnet.Cost.message net.Network.cost ~dist:0.;
  let dead = (Network.node_of_handle net h).Node.id in
  on_dead net ~owner ~dead;
  ignore (Routing_table.remove owner.Node.table dead);
  true

(* Native, at one level: the first live entry in wrap order from the
   wanted digit, with the hole bit when it is not in the wanted slot.
   {!Routing_table.next_filled} skips holes without probing them; the
   mask is re-read after every failed slot, since [dead] may rewrite
   slots mid-scan. *)
let rec native_scan net skip dead (node : Node.t) ~level ~want ~base tries =
  let tries = Routing_table.next_filled node.Node.table ~level ~want ~tries in
  if tries < 0 then -1
  else begin
    let j = want + tries in
    let j = if j >= base then j - base else j in
    let h = first_alive net skip dead node ~level ~digit:j in
    if h < 0 then native_scan net skip dead node ~level ~want ~base (tries + 1)
    else if tries > 0 then h lor hole_bit
    else h
  end

(* Most-significant-bit agreement between two digits, used by the PRR-like
   variant's first-hole rule.  [bits] is the digit width, precomputed in
   [Config.digit_bits]. *)
let rec msb_agree a b i acc =
  if i < 0 then acc
  else if (a lsr i) land 1 = (b lsr i) land 1 then msb_agree a b (i - 1) (acc + 1)
  else acc

let msb_agreement ~bits a b = msb_agree a b (bits - 1) 0

(* At the first hole (PRR-like): the filled digit with the best
   most-significant-bit agreement with the wanted digit, ties to the
   numerically higher digit (digits rise, so [>=] keeps the later). *)
let rec first_hole_best net skip dead (node : Node.t) ~level ~want ~bits ~base
    j ~best_s ~best =
  if j >= base then best
  else begin
    let h =
      if Routing_table.filled_mask node.Node.table ~level land (1 lsl j) <> 0
      then first_alive net skip dead node ~level ~digit:j
      else -1
    in
    let s = if h >= 0 then msb_agreement ~bits want j else -1 in
    if h >= 0 && s >= best_s then
      first_hole_best net skip dead node ~level ~want ~bits ~base (j + 1)
        ~best_s:s ~best:h
    else
      first_hole_best net skip dead node ~level ~want ~bits ~base (j + 1)
        ~best_s ~best
  end

(* After the first hole (PRR-like): numerically highest filled digit. *)
let rec prr_down net skip dead (node : Node.t) ~level j =
  if j < 0 then -1
  else if Routing_table.filled_mask node.Node.table ~level land (1 lsl j) = 0
  then prr_down net skip dead node ~level (j - 1)
  else
    let h = first_alive net skip dead node ~level ~digit:j in
    if h >= 0 then h else prr_down net skip dead node ~level (j - 1)

(* PRR-like, at one level: its own digit rule over the shared slot
   scan.  The walk's hole flag is its "first hole seen" state. *)
let prr_choose net skip dead (node : Node.t) ~level ~want ~hole_seen =
  let base = Routing_table.base node.Node.table in
  let exact =
    if
      hole_seen
      || Routing_table.filled_mask node.Node.table ~level land (1 lsl want) = 0
    then -1
    else first_alive net skip dead node ~level ~digit:want
  in
  if exact >= 0 then exact
  else
    let h =
      if hole_seen then prr_down net skip dead node ~level (base - 1)
      else
        first_hole_best net skip dead node ~level ~want
          ~bits:net.Network.config.Config.digit_bits ~base 0 ~best_s:(-1)
          ~best:(-1)
    in
    if h >= 0 then h lor hole_bit else -1

(* One step from [level] on, passing over the levels where [node] is
   its own surrogate; [hole] is the walk's hole flag so far. *)
let rec step_from net skip dead variant (node : Node.t) guid ~level hole =
  if level >= net.Network.config.Config.id_digits then -1
  else begin
    let want = Node_id.digit guid level in
    let r =
      match variant with
      | Native ->
          native_scan net skip dead node ~level ~want
            ~base:(Routing_table.base node.Node.table) 0
      | Prr_like ->
          prr_choose net skip dead node ~level ~want ~hole_seen:(hole <> 0)
    in
    if r < 0 then -1
    else begin
      let hole = hole lor (r land hole_bit) in
      let h = r land handle_mask in
      (* a handle is written once, when its node registers, before any
         serve window can reach the node *)
      if h = (node.Node.handle [@race_ok]) then
        step_from net skip dead variant node guid ~level:(level + 1) hole
      else ((level + 1) lsl level_shift) lor hole lor h
    end
  end

let step net ~skip ~dead node guid ~level =
  step_from net skip dead Native node guid ~level 0

(* [@alloc_ok]: one walk allocates the purge hook and [walk] closures
   and the result tuple — a fixed handful of words per routed message.
   The per-hop steps allocate nothing. *)
let[@alloc_ok] walk_internal variant on_dead skip net ~from guid ~init ~f =
  let dead = purge net on_dead in
  let rec walk (node : Node.t) level hole hops acc =
    let r = step_from net skip dead variant node guid ~level hole in
    if r < 0 then (node, acc, false, hops)
    else begin
      let next = Network.node_of_handle net (step_handle r) in
      Network.charge net node next;
      let hole = r land hole_bit in
      let hops = if hole <> 0 then hops + 1 else hops in
      match f acc next with
      | `Stop acc -> (next, acc, true, hops)
      | `Continue acc -> walk next (step_level r) hole hops acc
    end
  in
  match f init from with
  | `Stop acc -> (from, acc, true, 0)
  | `Continue acc -> walk from 0 0 0 acc

(* [@alloc_ok] below: the public entry points build their skip predicate
   and fold callback once per operation, and [route_to_root] /
   [route_to_node] allocate the path list their callers asked for. *)
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
  let r = step net ~skip:no_skip ~dead:(purge net default_on_dead) node guid ~level:0 in
  if r < 0 then None else Some (Network.node_of_handle net (step_handle r))

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
