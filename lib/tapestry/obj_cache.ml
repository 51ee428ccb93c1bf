(* Packed per-node object-pointer caches; see the interface and
   DESIGN.md §10 for the invalidation protocol and determinism
   argument.  Node [h]'s line is line [h mod 64] of segment [h / 64],
   the slice [(h mod 64) * ways ..] of that segment's parallel entry
   arrays.  A way is 19 bytes: the key word, the server handle and
   epoch snapshot packed in one word, and a hit-count, a flags and a
   doorkeeper byte.
   Growth appends segments and never copies a line.  An
   entry index packs the segment number above the index within the
   segment.  Everything on the probe/insert path is int-array
   arithmetic so the typed hot-path allocation lint covers this module
   (tools/lint/lint_typed.ml). *)

let seg_bits = 6
let seg_handles = 1 lsl seg_bits
let seg_mask = seg_handles - 1

(* An entry index is [(segment lsl cell_bits) lor cell]: a segment's
   [64 * ways] cells stay below 2^32 for any associativity a cache
   could be built with. *)
let cell_bits = 32
let cell_mask = (1 lsl cell_bits) - 1

type segment = {
  e_key : int array;  (* -1 = empty way *)
  e_srv_epoch : int array;  (* [srv_epoch]: server handle, epoch snapshot *)
  e_hits : Bytes.t;  (* frequency sketch: per-entry hit count *)
  e_flags : Bytes.t;  (* [flag_ref] clock reference, [flag_hint] imported *)
  hand : int array;  (* per line: clock hand *)
  dk : Bytes.t;  (* doorkeeper bits: [ways] bytes per line *)
  dk_fill : int array;  (* per line: fill attempts since reset *)
}

(* The (key, server) epoch table: packed pair ([pack_pair]) ->
   retraction count, read on every cache hit, FETCH completion and
   digest row.  Open addressing over two int columns, linear probing,
   power-of-two capacity at most three quarters full (half full cost
   serve-cold-churn 0.5 MB more peak RSS, for no throughput the
   benchmark could see); [-1] marks an empty cell
   (packed pairs are non-negative).  A lookup is one multiply and a few
   int compares, with no polymorphic hash or compare.  Counts only grow
   and [reset] empties the whole table, so there is no deletion, and
   nothing iterates it, so its cell order is never observed. *)
type epochs = {
  mutable ek : int array;  (* packed pair, or -1 *)
  mutable ev : int array;  (* its retraction count *)
  mutable en : int;  (* pairs held *)
}

type t = {
  ways : int;
  mutable nodes : int;
  mutable segs : segment array;
  ep : epochs;
  mutable guid_of : Node_id.t array;
  mutable keys : int;
  key_tbl : int Node_id.Tbl.t;
}

(* hit counts saturate: the sketch ranks resident hints by warmth (see
   [scan_weak_hint]), it is not an exact frequency *)
let hit_cap = 255

(* (key, server-handle) packed into one int: handles stay far below
   2^26 (the 1e6-node scale tier uses 2^20) and keys below 2^36. *)
let srv_bits = 26
let srv_mask = (1 lsl srv_bits) - 1
let pack_pair ~key ~srv = (key lsl srv_bits) lor srv

(* A way's server handle and epoch snapshot in one int, the handle in
   the low 26 bits.  The key keeps a word of its own, so the probe's way
   scan is a plain compare. *)
let[@inline] srv_epoch ~server ~epoch =
  if server lsr srv_bits <> 0 || epoch lsr (62 - srv_bits) <> 0 then
    invalid_arg "Obj_cache: server handle or epoch out of range";
  (epoch lsl srv_bits) lor server

(* [e_flags] bits *)
let flag_ref = 1
let flag_hint = 2

let flags (st : segment) j = Bytes.get_uint8 st.e_flags j
let hits (st : segment) j = Bytes.get_uint8 st.e_hits j

let seg_lines (g : segment) = Array.length g.hand

(* [@alloc_ok]: a segment's arrays, once per 64 handles ever (twice for
   a partial last segment: see [ensure_nodes]) *)
let[@alloc_ok] make_segment ~ways lines =
  let cells = lines * ways in
  {
    e_key = Array.make cells (-1);
    e_srv_epoch = Array.make cells 0;
    e_hits = Bytes.make cells '\000';
    e_flags = Bytes.make cells '\000';
    hand = Array.make lines 0;
    dk = Bytes.make cells '\000';
    dk_fill = Array.make lines 0;
  }

(* [@alloc_ok]: one structure per network / serve run.  The last
   segment holds only the lines [nodes] needs, so a small cache stays
   small.  Zero ways is a cache every probe misses: it covers no
   handle, so it holds no segment, clock hand or doorkeeper counter,
   and every [h >= nodes] guard answers at once. *)
let[@alloc_ok] create ~ways ~nodes =
  if ways < 0 then invalid_arg "Obj_cache.create: negative ways";
  if nodes < 0 then invalid_arg "Obj_cache.create: negative nodes";
  let nodes = if ways = 0 then 0 else nodes in
  {
    ways;
    nodes;
    segs =
      Array.init
        ((nodes + seg_mask) / seg_handles)
        (fun k -> make_segment ~ways (min seg_handles (nodes - (k * seg_handles))));
    ep = { ek = [||]; ev = [||]; en = 0 };
    guid_of = [||];
    keys = 0;
    key_tbl = Node_id.Tbl.create 256;
  }

(* [old] filled out to a whole segment, its entries kept. *)
let fill_out ~ways (old : segment) =
  let g = make_segment ~ways seg_handles in
  let lines = seg_lines old in
  let cells = lines * ways in
  Array.blit old.e_key 0 g.e_key 0 cells;
  Array.blit old.e_srv_epoch 0 g.e_srv_epoch 0 cells;
  Bytes.blit old.e_hits 0 g.e_hits 0 cells;
  Bytes.blit old.e_flags 0 g.e_flags 0 cells;
  Array.blit old.hand 0 g.hand 0 lines;
  Bytes.blit old.dk 0 g.dk 0 cells;
  Array.blit old.dk_fill 0 g.dk_fill 0 lines;
  g

(* [@alloc_ok]: growth appends whole segments of 64 lines (and the
   segment spine, one word per 64 handles), so no line is ever copied
   except those of a partial last segment from [create], once; the
   serve tier only calls this at barriers.  A zero-way cache stays
   empty. *)
let[@alloc_ok] ensure_nodes t n =
  if n > t.nodes && t.ways > 0 then begin
    let have = Array.length t.segs in
    if have > 0 && seg_lines t.segs.(have - 1) < seg_handles then
      t.segs.(have - 1) <- fill_out ~ways:t.ways t.segs.(have - 1);
    let want = (n + seg_mask) / seg_handles in
    if want > have then
      t.segs <-
        Array.append t.segs
          (Array.init (want - have) (fun _ -> make_segment ~ways:t.ways seg_handles));
    t.nodes <- n
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

let[@inline] find_key t guid =
  match Node_id.Tbl.find_opt t.key_tbl guid with Some k -> k | None -> -1

let guid_of_key t k =
  if k < 0 || k >= t.keys then invalid_arg "Obj_cache.guid_of_key";
  t.guid_of.(k)

(* Fibonacci multiply, the high half folded onto the low bits the cell
   index takes, so a pair's key (above bit 26) moves them too. *)
let[@inline] ep_hash k =
  let h = k * 0x9E3779B97F4A7C1 in
  h lxor (h lsr 32)

(* The cell holding [k], or the empty cell where it would go. *)
let rec ep_cell (ek : int array) k mask i =
  let x = ek.(i) in
  if x = k || x < 0 then i else ep_cell ek k mask ((i + 1) land mask)

let epoch_of t ~key ~srv =
  let e = t.ep in
  if e.en = 0 then 0
  else begin
    let k = pack_pair ~key ~srv in
    let mask = Array.length e.ek - 1 in
    let i = ep_cell e.ek k mask (ep_hash k land mask) in
    if e.ek.(i) = k then e.ev.(i) else 0
  end

(* [@alloc_ok]: doubling, at most log2 of the retractions ever issued. *)
let[@alloc_ok] ep_grow e =
  let ok = e.ek and ov = e.ev in
  let cap = max 256 (2 * Array.length ok) in
  let mask = cap - 1 in
  e.ek <- Array.make cap (-1);
  e.ev <- Array.make cap 0;
  for j = 0 to Array.length ok - 1 do
    let k = ok.(j) in
    if k >= 0 then begin
      let i = ep_cell e.ek k mask (ep_hash k land mask) in
      e.ek.(i) <- k;
      e.ev.(i) <- ov.(j)
    end
  done

(* Unpublish-only (sync inline, serve at barriers). *)
let bump_epoch t ~key ~srv =
  let e = t.ep in
  if 4 * (e.en + 1) > 3 * Array.length e.ek then ep_grow e;
  let k = pack_pair ~key ~srv in
  let mask = Array.length e.ek - 1 in
  let i = ep_cell e.ek k mask (ep_hash k land mask) in
  if e.ek.(i) = k then e.ev.(i) <- e.ev.(i) + 1
  else begin
    e.ek.(i) <- k;
    e.ev.(i) <- 1;
    e.en <- e.en + 1
  end

(* Entry index of cell [j] of segment [k], as the probe returns it. *)
let entry k j = (k lsl cell_bits) lor j

let seg_of t i = t.segs.(i lsr cell_bits)

let cell_of i = i land cell_mask

(* Way scans are tail-recursive over the cells [j .. stop-1] of one
   line: the probe/insert path must stay allocation-free (hot-path
   lint). *)
let rec scan_key (keys : int array) ~key j stop =
  if j >= stop then -1
  else if keys.(j) = key then j
  else scan_key keys ~key (j + 1) stop

let rec scan_empty (keys : int array) j stop =
  if j >= stop then -1 else if keys.(j) = -1 then j else scan_empty keys (j + 1) stop

(* Cheap pre-check for hint offers: a full line cannot accept any hint
   (imports never displace resident entries), so the caller can skip a
   whole digest pass with one scan. *)
let has_empty_way t ~h =
  h < t.nodes
  &&
  let base = (h land seg_mask) * t.ways in
  scan_empty t.segs.(h lsr seg_bits).e_key base (base + t.ways) >= 0

(* Weakest hint-sourced way of a line (lowest sketch count), or -1.
   Organic fills use it so resident hints can never crowd out local
   learning: see [insert]. *)
let rec scan_weak_hint (st : segment) j stop bi bh =
  if j >= stop then bi
  else if flags st j land flag_hint <> 0 && (bi < 0 || hits st j < bh) then
    scan_weak_hint st (j + 1) stop j (hits st j)
  else scan_weak_hint st (j + 1) stop bi bh

(* An empty way has no sketch count and no flags. *)
let[@inline] clear_way (st : segment) j =
  st.e_key.(j) <- -1;
  Bytes.set_uint8 st.e_hits j 0;
  Bytes.set_uint8 st.e_flags j 0

let probe t ~h ~key =
  if h >= t.nodes then -1
  else begin
    let k = h lsr seg_bits in
    let st = t.segs.(k) in
    let base = (h land seg_mask) * t.ways in
    let j = scan_key st.e_key ~key base (base + t.ways) in
    if j < 0 then -1
    else begin
      let se = st.e_srv_epoch.(j) in
      if se lsr srv_bits = epoch_of t ~key ~srv:(se land srv_mask) then begin
        Bytes.set_uint8 st.e_flags j (flags st j lor flag_ref);
        let hv = hits st j in
        if hv < hit_cap then Bytes.set_uint8 st.e_hits j (hv + 1);
        entry k j
      end
      else begin
        (* epoch-stale: self-evict so the way frees up immediately *)
        clear_way st j;
        -2
      end
    end
  end

let[@inline] probe_srv t i = (seg_of t i).e_srv_epoch.(cell_of i) land srv_mask

let[@inline] probe_epoch t i = (seg_of t i).e_srv_epoch.(cell_of i) lsr srv_bits

let[@inline] probe_is_hint t i = flags (seg_of t i) (cell_of i) land flag_hint <> 0

(* Deterministic hash of a node handle and a key (doorkeeper bit
   selection): a multiplicative mix, no ambient randomness. *)
let[@inline] mix h key =
  let x = (h * 0x9e3779b1) + (key * 0x85ebca77) + 0x165667b1 in
  let x = x lxor (x lsr 15) in
  (x * 0x27d4eb2f) land max_int

(* second chance: clear reference bits until one is already clear *)
let rec clock_sweep t (st : segment) ~base pos spins =
  let w = pos mod t.ways in
  let f = flags st (base + w) in
  if spins >= t.ways || f land flag_ref = 0 then w
  else begin
    Bytes.set_uint8 st.e_flags (base + w) (f land lnot flag_ref);
    clock_sweep t st ~base (pos + 1) (spins + 1)
  end

let victim_way t (st : segment) ~line =
  let base = line * t.ways in
  let w = clock_sweep t st ~base st.hand.(line) 0 in
  st.hand.(line) <- (w + 1) mod t.ways;
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

let dk_admit t (st : segment) ~h ~line ~key =
  let bit = dk_bit t ~h ~key in
  let byte = (line * t.ways) + (bit lsr 3) in
  let mask = 1 lsl (bit land 7) in
  let cur = Char.code (Bytes.unsafe_get st.dk byte) in
  if cur land mask <> 0 then true
  else begin
    Bytes.unsafe_set st.dk byte (Char.unsafe_chr (cur lor mask));
    let fills = st.dk_fill.(line) + 1 in
    if fills >= 8 * t.ways then begin
      Bytes.fill st.dk (line * t.ways) t.ways '\000';
      st.dk_fill.(line) <- 0
    end
    else st.dk_fill.(line) <- fills;
    false
  end

let insert t ~h ~key ~server ~epoch =
  if h < t.nodes && t.ways > 0 then begin
    let se = srv_epoch ~server ~epoch in
    let st = t.segs.(h lsr seg_bits) and line = h land seg_mask in
    let base = line * t.ways in
    (* refresh an existing entry or claim an empty way before evicting *)
    let j =
      let s = scan_key st.e_key ~key base (base + t.ways) in
      if s >= 0 then s
      else begin
        let e = scan_empty st.e_key base (base + t.ways) in
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
          let hw = scan_weak_hint st base (base + t.ways) (-1) 0 in
          if hw >= 0 then hw
          else if dk_admit t st ~h ~line ~key then victim_way t st ~line
          else -1
        end
      end
    in
    if j >= 0 then begin
      (* a learned fill of a new key (re)starts the sketch at 1 and
         clears any hint mark; a refresh keeps the accumulated count *)
      if st.e_key.(j) <> key then Bytes.set_uint8 st.e_hits j 1;
      Bytes.set_uint8 st.e_flags j flag_ref;
      st.e_key.(j) <- key;
      st.e_srv_epoch.(j) <- se
    end
  end

(* Hint import: never clobbers an entry the node already holds for the
   key (the node's own learning wins), and only ever claims an empty
   way, marking the entry hint-sourced.  Returns whether it landed. *)
let import_hint t ~h ~key ~server ~epoch =
  if h >= t.nodes then false
  else begin
    let se = srv_epoch ~server ~epoch in
    let st = t.segs.(h lsr seg_bits) in
    let base = (h land seg_mask) * t.ways in
    if scan_key st.e_key ~key base (base + t.ways) >= 0 then false
    else begin
      (* a hint may only occupy an empty way — never an entry the node
         earned by fetching, and never another hint.  Imported warmth
         displacing local learning trades organic hits for hinted ones
         instead of adding to them, and hint-for-hint replacement makes
         cold hints cycle endlessly as buckets change between windows.
         Spare ways sit exactly where hints are worth the most: the
         client-edge path nodes the unwind rarely reaches. *)
      let j = scan_empty st.e_key base (base + t.ways) in
      if j < 0 then false
      else begin
        st.e_key.(j) <- key;
        st.e_srv_epoch.(j) <- se;
        Bytes.set_uint8 st.e_hits j 1;
        Bytes.set_uint8 st.e_flags j (flag_hint lor flag_ref);
        true
      end
    end
  end

let evict_at t i = clear_way (seg_of t i) (cell_of i)

let evict t ~h ~key ~server =
  if h < t.nodes then begin
    let st = t.segs.(h lsr seg_bits) in
    let base = (h land seg_mask) * t.ways in
    for w = 0 to t.ways - 1 do
      if
        st.e_key.(base + w) = key
        && st.e_srv_epoch.(base + w) land srv_mask = server
      then clear_way st (base + w)
    done
  end

(* [@alloc_ok]: mesh-reuse replay support, called between runs.  Clears
   every soft entry — lines, sketch, hint marks, doorkeeper, clock
   hands, pair epochs — but keeps the GUID interning (a pure
   identity assignment). *)
let[@alloc_ok] reset t =
  Array.iter
    (fun (st : segment) ->
      let cells = Array.length st.e_key in
      Array.fill st.e_key 0 cells (-1);
      Array.fill st.e_srv_epoch 0 cells 0;
      Bytes.fill st.e_hits 0 cells '\000';
      Bytes.fill st.e_flags 0 cells '\000';
      Array.fill st.hand 0 (seg_lines st) 0;
      Bytes.fill st.dk 0 cells '\000';
      Array.fill st.dk_fill 0 (seg_lines st) 0)
    t.segs;
  t.ep.ek <- [||];
  t.ep.ev <- [||];
  t.ep.en <- 0

(* [@alloc_ok]: audit-only sweep, in handle order: every way of node
   [h]'s line before node [h + 1]'s. *)
let[@alloc_ok] iter_ways t ~f =
  for h = 0 to t.nodes - 1 do
    let k = h lsr seg_bits in
    let st = t.segs.(k) in
    let base = (h land seg_mask) * t.ways in
    for j = base to base + t.ways - 1 do
      f ~h ~key:st.e_key.(j) ~hits:(hits st j)
        ~hint:(flags st j land flag_hint <> 0) ~i:(entry k j)
    done
  done

(* [@alloc_ok]: diagnostics only. *)
let[@alloc_ok] entries t =
  let n = ref 0 in
  iter_ways t ~f:(fun ~h:_ ~key ~hits:_ ~hint:_ ~i:_ -> if key >= 0 then incr n);
  !n

(* [@alloc_ok]: audit-only sweep. *)
let[@alloc_ok] iter t ~f =
  iter_ways t ~f:(fun ~h ~key ~hits:_ ~hint:_ ~i ->
      if key >= 0 then
        f ~h ~key ~server:(probe_srv t i) ~epoch:(probe_epoch t i))

(* [@alloc_ok]: diagnostics only (memory_footprint reports). *)
let[@alloc_ok] approx_bytes t =
  let word = 8 in
  let arr a = (Array.length a + 1) * word
  and bytes b = (((Bytes.length b + word) / word) + 1) * word in
  Array.fold_left
    (fun acc (st : segment) ->
      acc + arr st.e_key + arr st.e_srv_epoch + bytes st.e_hits + bytes st.e_flags
      + arr st.hand + arr st.dk_fill + bytes st.dk
      + (8 * word) (* the segment record *))
    (arr t.segs) t.segs
  + (Array.length t.guid_of + 1) * word
  + (let cap = Array.length t.ep.ek in
     if cap = 0 then 0 else 2 * (cap + 1) * word (* pair-epoch columns *))
  + (t.keys * 3 * word) (* key table entries, rough *)
  + (16 * word)
