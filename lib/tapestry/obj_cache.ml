(* Packed per-node object-pointer caches; see the interface and
   DESIGN.md §10 for the invalidation protocol and determinism
   argument.  Node [h]'s line is the slice [h*ways ..] of the parallel
   entry arrays; everything on the probe/insert path is int-array
   arithmetic so the typed hot-path allocation lint covers this module
   (tools/lint/lint_typed.ml). *)

type t = {
  ways : int;
  mutable nodes : int;
  mutable e_key : int array;
  mutable e_srv : int array;
  mutable e_gen : int array;
  mutable e_epoch : int array;
  mutable e_stamp : int array;  (* clock reference bit *)
  mutable e_hits : int array;  (* frequency sketch: per-entry hit count *)
  mutable e_src : Bytes.t;  (* '\001' = imported hint, '\000' = learned *)
  mutable hand : int array;  (* per node: clock hand *)
  mutable dk : Bytes.t;  (* doorkeeper bits: [ways] bytes per node *)
  mutable dk_fill : int array;  (* per node: fill attempts since reset *)
  ep_tbl : (int, int) Hashtbl.t;
  mutable guid_of : Node_id.t array;
  mutable keys : int;
  key_tbl : int Node_id.Tbl.t;
  tally : Simnet.Stats.Tally.t;
}

(* hit counts saturate: the sketch ranks resident hints by warmth (see
   [scan_weak_hint]), it is not an exact frequency *)
let hit_cap = 255

(* (key, server-handle) packed into one int: handles stay far below
   2^26 (the 1e6-node scale tier uses 2^20) and keys below 2^36. *)
let pack_pair ~key ~srv = (key lsl 26) lor srv

(* [@alloc_ok]: one structure per network / serve run. *)
let[@alloc_ok] create ~ways ~nodes =
  if ways <= 0 then invalid_arg "Obj_cache.create: ways must be positive";
  if nodes < 0 then invalid_arg "Obj_cache.create: negative nodes";
  let cells = nodes * ways in
  {
    ways;
    nodes;
    e_key = Array.make (max 1 cells) (-1);
    e_srv = Array.make (max 1 cells) 0;
    e_gen = Array.make (max 1 cells) 0;
    e_epoch = Array.make (max 1 cells) 0;
    e_stamp = Array.make (max 1 cells) 0;
    e_hits = Array.make (max 1 cells) 0;
    e_src = Bytes.make (max 1 cells) '\000';
    hand = Array.make (max 1 nodes) 0;
    dk = Bytes.make (max 1 cells) '\000';
    dk_fill = Array.make (max 1 nodes) 0;
    ep_tbl = Hashtbl.create 256;
    guid_of = [||];
    keys = 0;
    key_tbl = Node_id.Tbl.create 256;
    tally = Simnet.Stats.Tally.create ();
  }

(* [@alloc_ok]: growth doubles, so this runs O(log n) times ever; the
   serve tier only calls it at barriers. *)
let[@alloc_ok] ensure_nodes t n =
  if n > t.nodes then begin
    let nodes = max n (max 16 (2 * t.nodes)) in
    let cells = nodes * t.ways in
    let grow_cells old fill =
      let a = Array.make cells fill in
      Array.blit old 0 a 0 (t.nodes * t.ways);
      a
    in
    t.e_key <- grow_cells t.e_key (-1);
    t.e_srv <- grow_cells t.e_srv 0;
    t.e_gen <- grow_cells t.e_gen 0;
    t.e_epoch <- grow_cells t.e_epoch 0;
    t.e_stamp <- grow_cells t.e_stamp 0;
    t.e_hits <- grow_cells t.e_hits 0;
    let src = Bytes.make cells '\000' in
    Bytes.blit t.e_src 0 src 0 (t.nodes * t.ways);
    t.e_src <- src;
    let dk = Bytes.make cells '\000' in
    Bytes.blit t.dk 0 dk 0 (t.nodes * t.ways);
    t.dk <- dk;
    let hand = Array.make nodes 0 in
    Array.blit t.hand 0 hand 0 t.nodes;
    t.hand <- hand;
    let dk_fill = Array.make nodes 0 in
    Array.blit t.dk_fill 0 dk_fill 0 t.nodes;
    t.dk_fill <- dk_fill;
    t.nodes <- nodes
  end

(* [@alloc_ok]: interning is cold — once per object GUID ever. *)
let[@alloc_ok] intern t guid =
  match Node_id.Tbl.find_opt t.key_tbl guid with
  | Some k -> k
  | None ->
      let k = t.keys in
      if k >= Array.length t.guid_of then begin
        let cap = max 16 (2 * Array.length t.guid_of) in
        let gs = Array.make cap guid in
        Array.blit t.guid_of 0 gs 0 k;
        t.guid_of <- gs
      end;
      t.guid_of.(k) <- guid;
      t.keys <- k + 1;
      Node_id.Tbl.add t.key_tbl guid k;
      k

let find_key t guid =
  match Node_id.Tbl.find_opt t.key_tbl guid with Some k -> k | None -> -1

let guid_of_key t k =
  if k < 0 || k >= t.keys then invalid_arg "Obj_cache.guid_of_key";
  t.guid_of.(k)

(* [Not_found] is a constant exception: the miss path allocates
   nothing, so this is safe on the probe hot path. *)
let epoch_of t ~key ~srv =
  try Hashtbl.find t.ep_tbl (pack_pair ~key ~srv) with Not_found -> 0

(* [@alloc_ok]: unpublish-only (sync inline, serve at barriers). *)
let[@alloc_ok] bump_epoch t ~key ~srv =
  let k = pack_pair ~key ~srv in
  Hashtbl.replace t.ep_tbl k (1 + (try Hashtbl.find t.ep_tbl k with Not_found -> 0))

(* Touch an entry: set its clock reference bit. *)
let touch t i = t.e_stamp.(i) <- 1

(* Way scans are tail-recursive over int indices: the probe/insert path
   must stay allocation-free (hot-path lint). *)
let rec scan_key t ~base ~key w =
  if w >= t.ways then -1
  else if t.e_key.(base + w) = key then base + w
  else scan_key t ~base ~key (w + 1)

let rec scan_empty t ~base w =
  if w >= t.ways then -1
  else if t.e_key.(base + w) = -1 then base + w
  else scan_empty t ~base (w + 1)

(* Cheap pre-check for hint offers: a full line cannot accept any hint
   (imports never displace resident entries), so the caller can skip a
   whole digest pass with one scan. *)
let has_empty_way t ~h =
  h < t.nodes && scan_empty t ~base:(h * t.ways) 0 >= 0

(* Weakest hint-sourced way of a line (lowest sketch count), or -1.
   Organic fills use it so resident hints can never crowd out local
   learning: see [insert_snap]. *)
let rec scan_weak_hint t ~base w bi bh =
  if w >= t.ways then bi
  else
    let i = base + w in
    if Bytes.unsafe_get t.e_src i = '\001' && (bi < 0 || t.e_hits.(i) < bh)
    then scan_weak_hint t ~base (w + 1) i t.e_hits.(i)
    else scan_weak_hint t ~base (w + 1) bi bh

let probe t ~h ~key =
  if h >= t.nodes then -1
  else begin
    let i = scan_key t ~base:(h * t.ways) ~key 0 in
    if i < 0 then -1
    else if t.e_epoch.(i) = epoch_of t ~key ~srv:t.e_srv.(i) then begin
      touch t i;
      let hv = t.e_hits.(i) in
      if hv < hit_cap then t.e_hits.(i) <- hv + 1;
      i
    end
    else begin
      (* epoch-stale: self-evict so the way frees up immediately *)
      t.e_key.(i) <- -1;
      t.e_hits.(i) <- 0;
      Bytes.unsafe_set t.e_src i '\000';
      -2
    end
  end

let probe_srv t i = t.e_srv.(i)

let probe_gen t i = t.e_gen.(i)

let probe_epoch t i = t.e_epoch.(i)

let probe_is_hint t i = Bytes.unsafe_get t.e_src i = '\001'

(* Deterministic hash of a node handle and a key (doorkeeper bit
   selection): a multiplicative mix, no ambient randomness. *)
let mix h key =
  let x = (h * 0x9e3779b1) + (key * 0x85ebca77) + 0x165667b1 in
  let x = x lxor (x lsr 15) in
  (x * 0x27d4eb2f) land max_int

(* second chance: clear reference bits until one is already clear *)
let rec clock_sweep t ~base pos spins =
  let w = pos mod t.ways in
  if spins >= t.ways || t.e_stamp.(base + w) <> 1 then w
  else begin
    t.e_stamp.(base + w) <- 0;
    clock_sweep t ~base (pos + 1) (spins + 1)
  end

let victim_way t h =
  let base = h * t.ways in
  let w = clock_sweep t ~base t.hand.(h) 0 in
  t.hand.(h) <- (w + 1) mod t.ways;
  base + w

(* Doorkeeper admission (TinyLFU-style, but a plain deterministic bit
   array): evicting a resident entry for a first-touch key is what lets
   the Zipf tail thrash the hot head out of a line, so a fill that
   would have to evict is only admitted on the key's SECOND touch
   within the line's recent history.  First touch sets a bit (8*ways
   bits per node, multiplicatively hashed) and declines; the slice is
   zeroed every 8*ways declined attempts so the memory stays bounded
   and recent.  Refreshes and empty-way fills bypass the filter — they
   evict nothing. *)
let dk_bit t ~h ~key =
  let x = mix h key land max_int in
  x mod (8 * t.ways)

let dk_admit t ~h ~key =
  let bit = dk_bit t ~h ~key in
  let byte = (h * t.ways) + (bit lsr 3) in
  let mask = 1 lsl (bit land 7) in
  let cur = Char.code (Bytes.unsafe_get t.dk byte) in
  if cur land mask <> 0 then true
  else begin
    Bytes.unsafe_set t.dk byte (Char.unsafe_chr (cur lor mask));
    let fills = t.dk_fill.(h) + 1 in
    if fills >= 8 * t.ways then begin
      Bytes.fill t.dk (h * t.ways) t.ways '\000';
      t.dk_fill.(h) <- 0
    end
    else t.dk_fill.(h) <- fills;
    false
  end

let insert_snap t ~h ~key ~server ~gen ~epoch =
  if h < t.nodes then begin
    let base = h * t.ways in
    (* refresh an existing entry or claim an empty way before evicting *)
    let i =
      let s = scan_key t ~base ~key 0 in
      if s >= 0 then s
      else begin
        let e = scan_empty t ~base 0 in
        if e >= 0 then e
        else begin
          (* resident hints never block local learning: a full line
             replaces its weakest hint before consulting the
             doorkeeper (dropping a hint evicts nothing the node
             earned, so no admission gate applies).  Without this, a
             hint-padded line makes organic fills pay the first-touch
             decline PR 9 never charged them, and coop-on loses
             organic hits it should only ever add to.  Without
             cooperation no line holds a hint and the scan finds none. *)
          let hw = scan_weak_hint t ~base 0 (-1) 0 in
          if hw >= 0 then hw
          else if dk_admit t ~h ~key then victim_way t h
          else -1
        end
      end
    in
    if i >= 0 then begin
      (* a learned fill of a new key (re)starts the sketch at 1 and
         clears any hint mark; a refresh keeps the accumulated count *)
      if t.e_key.(i) <> key then t.e_hits.(i) <- 1;
      Bytes.unsafe_set t.e_src i '\000';
      t.e_key.(i) <- key;
      t.e_srv.(i) <- server;
      t.e_gen.(i) <- gen;
      t.e_epoch.(i) <- epoch;
      touch t i
    end
  end

let insert t ~h ~key ~server ~gen =
  insert_snap t ~h ~key ~server ~gen ~epoch:(epoch_of t ~key ~srv:server)

(* Hint import: never clobbers an entry the node already holds for the
   key (the node's own learning wins), and only ever claims an empty
   way, marking the entry hint-sourced.  Returns whether it landed. *)
let import_hint t ~h ~key ~server ~gen ~epoch =
  if h >= t.nodes then false
  else begin
    let base = h * t.ways in
    if scan_key t ~base ~key 0 >= 0 then false
    else begin
      (* a hint may only occupy an empty way — never an entry the node
         earned by fetching, and never another hint.  Imported warmth
         displacing local learning trades organic hits for hinted ones
         instead of adding to them, and hint-for-hint replacement makes
         cold hints cycle endlessly as buckets change between windows.
         Spare ways sit exactly where hints are worth the most: the
         client-edge path nodes the unwind rarely reaches. *)
      let i = scan_empty t ~base 0 in
      if i < 0 then false
      else begin
        t.e_key.(i) <- key;
        t.e_srv.(i) <- server;
        t.e_gen.(i) <- gen;
        t.e_epoch.(i) <- epoch;
        t.e_hits.(i) <- 1;
        Bytes.unsafe_set t.e_src i '\001';
        touch t i;
        true
      end
    end
  end

let evict_at t i =
  t.e_key.(i) <- -1;
  t.e_hits.(i) <- 0;
  Bytes.unsafe_set t.e_src i '\000'

let evict t ~h ~key ~server =
  if h < t.nodes then begin
    let base = h * t.ways in
    for w = 0 to t.ways - 1 do
      if t.e_key.(base + w) = key && t.e_srv.(base + w) = server then
        evict_at t (base + w)
    done
  end

(* [@alloc_ok]: mesh-reuse replay support, called between runs.  Clears
   every soft entry — lines, sketch, hint marks, doorkeeper, clock
   hands, pair epochs, tally — but keeps the GUID interning (a pure
   identity assignment). *)
let[@alloc_ok] reset t =
  Array.fill t.e_key 0 (Array.length t.e_key) (-1);
  Array.fill t.e_srv 0 (Array.length t.e_srv) 0;
  Array.fill t.e_gen 0 (Array.length t.e_gen) 0;
  Array.fill t.e_epoch 0 (Array.length t.e_epoch) 0;
  Array.fill t.e_stamp 0 (Array.length t.e_stamp) 0;
  Array.fill t.e_hits 0 (Array.length t.e_hits) 0;
  Bytes.fill t.e_src 0 (Bytes.length t.e_src) '\000';
  Array.fill t.hand 0 (Array.length t.hand) 0;
  Bytes.fill t.dk 0 (Bytes.length t.dk) '\000';
  Array.fill t.dk_fill 0 (Array.length t.dk_fill) 0;
  Hashtbl.reset t.ep_tbl;
  Simnet.Stats.Tally.reset t.tally

let rec count_filled t i acc =
  if i >= t.nodes * t.ways then acc
  else count_filled t (i + 1) (if t.e_key.(i) >= 0 then acc + 1 else acc)

let entries t = count_filled t 0 0

(* [@alloc_ok]: audit-only sweep. *)
let[@alloc_ok] iter t ~f =
  for i = 0 to (t.nodes * t.ways) - 1 do
    if t.e_key.(i) >= 0 then
      f ~h:(i / t.ways) ~key:t.e_key.(i) ~server:t.e_srv.(i)
        ~gen:t.e_gen.(i) ~epoch:t.e_epoch.(i)
  done

(* [@alloc_ok]: diagnostics only (memory_footprint reports). *)
let[@alloc_ok] approx_bytes t =
  let word = 8 in
  let arr a = (Array.length a + 1) * word in
  arr t.e_key + arr t.e_srv + arr t.e_gen + arr t.e_epoch + arr t.e_stamp
  + arr t.e_hits + Bytes.length t.e_src
  + arr t.hand + arr t.dk_fill + Bytes.length t.dk + word
  + (Array.length t.guid_of + 1) * word
  + (Hashtbl.length t.ep_tbl * 4 * word) (* pair-epoch table, rough *)
  + (t.keys * 3 * word) (* key table entries, rough *)
  + (16 * word)
