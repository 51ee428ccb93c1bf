type entry = { id : Node_id.t; dist : float }

type names = { mutable ids : Node_id.t array }

(* Packed representation: each level keeps its [base] slots in one row of
   flat parallel arrays, [redundancy] cells per slot, sorted in place by
   distance.  Slot [digit] of a level occupies row cells
   [digit * redundancy ..+ redundancy); the handles row carries, after its
   [base * redundancy] cells, the live prefix length of each slot, so a
   slot scan reads its length and its handles from one block.  An entry
   is the neighbor's arena handle and its distance: the routing hot path
   resolves nodes through the O(1) arena with no hashing and no per-hop
   list allocation, and an entry's ID is read from the network's name
   column at its handle, so each neighbor is stored under one name.  A
   cell holding [owner_handle] is the owner's self-entry; cells past a
   slot's length are never read.

   A level's row is allocated by the first [consider] that offers the
   level a node other than the owner (with R > 1 that offer always
   lands); until then the level points at shared empty arrays and holds
   only its implicit owner entry (in the owner's digit slot, handle
   [owner_handle], distance 0), present iff the owner's [filled] bit is
   set.  A mesh of n nodes fills about log_b n levels per table, so the
   levels below stay row-less: the space Table 1 charges, not
   [id_digits * base * redundancy] cells per node. *)
type t = {
  owner : Node_id.t;
  mutable owner_handle : int;
  mutable names : names;
      (* the network's name column, set at registration: [names.ids.(h)]
         is the ID of the node with arena handle [h] *)
  redundancy : int;
  base : int;
  levels : int;
  handles : int array array;
  dists : float array array;
      (* per level: the row (base * redundancy cells, and for [handles]
         then base slot lengths), or the shared empty arrays while the
         level is row-less *)
  filled : int array;
      (* per level, bit [digit] set iff that slot is non-empty: digit scans
         in the routing hot path test one bit instead of a slot length
         (base <= 32, so a level's mask fits one immediate int) *)
  bp_handles : int array array;
  bp_lens : int array;
      (* backpointers per level: a growable vector of holder arena
         handles.  The live prefix [0, bp_lens.(level)) is kept in the
         order holders were first recorded; removal shifts the tail down.
         Levels start on shared empty arrays and allocate on their first
         holder. *)
}

(* Until registration a table reads no column: its only entries are the
   owner's, whose cells hold [owner_handle] and resolve to [owner]. *)
let unnamed = { ids = [||] }

(* [@alloc_ok]: one table per node, built once at registration; no level
   row is allocated yet. *)
let[@alloc_ok] create (cfg : Config.t) ~owner =
  let levels = cfg.id_digits in
  let t =
    {
      owner;
      owner_handle = -1;
      names = unnamed;
      redundancy = cfg.redundancy;
      base = cfg.base;
      levels;
      handles = Array.make levels [||];
      dists = Array.make levels [||];
      filled = Array.make levels 0;
      bp_handles = Array.make levels [||];
      bp_lens = Array.make levels 0;
    }
  in
  (* The owner fills its own digit slot at every level. *)
  for l = 0 to levels - 1 do
    t.filled.(l) <- 1 lsl Node_id.digit owner l
  done;
  t

let has_row t level = Array.length t.handles.(level) > 0

(* Index of slot [digit]'s length in a handles row. *)
let len_at t digit = (t.base * t.redundancy) + digit

(* [@alloc_ok]: at most [levels] times per table, on a level's first
   non-owner entry.  The row starts with the owner entry if the level
   holds it. *)
let[@alloc_ok] alloc_row t level =
  let cells = t.base * t.redundancy in
  let handles = Array.make (cells + t.base) (-1)
  and dists = Array.make cells 0. in
  Array.fill handles cells t.base 0;
  let digit = Node_id.digit t.owner level in
  if (t.filled.(level) lsr digit) land 1 = 1 then begin
    handles.(len_at t digit) <- 1;
    handles.(digit * t.redundancy) <- t.owner_handle
  end;
  t.handles.(level) <- handles;
  t.dists.(level) <- dists

let set_owner_handle t names handle =
  for level = 0 to t.levels - 1 do
    if has_row t level then begin
      let hs = t.handles.(level) and digit = Node_id.digit t.owner level in
      let off = digit * t.redundancy in
      for k = off to off + hs.(len_at t digit) - 1 do
        if hs.(k) = t.owner_handle then hs.(k) <- handle
      done
    end
  done;
  t.owner_handle <- handle;
  t.names <- names

let owner t = t.owner

let owner_handle t = t.owner_handle

let levels t = t.levels

let base t = t.base

let rec rows_from t level acc =
  if level >= t.levels then acc
  else rows_from t (level + 1) (if has_row t level then acc + 1 else acc)

let allocated_rows t = rows_from t 0 0

(* A row-less level's only entry is the owner's, so its slot length is the
   owner's [filled] bit and [k] can only be 0 there. *)
let slot_len t ~level ~digit =
  let hs = t.handles.(level) in
  if Array.length hs = 0 then (t.filled.(level) lsr digit) land 1
  else hs.(len_at t digit)

let filled_mask t ~level = t.filled.(level)

(* Count trailing zeros of a non-zero mask (< 2^32: base <= 32), de Bruijn
   multiply — branch-free, the digit scan's inner step. *)
let ntz_table =
  [|
    0; 1; 28; 2; 29; 14; 24; 3; 30; 22; 20; 15; 25; 17; 4; 8; 31; 27; 13; 23;
    21; 19; 16; 7; 26; 12; 18; 6; 11; 5; 10; 9;
  |]

let ntz x = ntz_table.((((x land -x) * 0x077CB531) land 0xFFFFFFFF) lsr 27)

let next_filled t ~level ~want ~tries =
  let base = t.base in
  if tries >= base then -1
  else begin
    let start = want + tries in
    let start = if start >= base then start - base else start in
    (* rotate so bit 0 is digit [start]; the low [base] bits survive *)
    let m = t.filled.(level) in
    let m = ((m lsr start) lor (m lsl (base - start))) land ((1 lsl base) - 1) in
    if m = 0 then -1
    else
      let tries = tries + ntz m in
      if tries >= base then -1 else tries
  end

(* [owner_handle] and [names] are written once, by [Network.register]
   before the node is reachable and outside any serve window, so serve
   windows read settled values here. *)
let slot_handle t ~level ~digit ~k =
  let hs = t.handles.(level) in
  if Array.length hs = 0 then (t.owner_handle [@race_ok])
  else hs.((digit * t.redundancy) + k)

(* The ID of the node with arena handle [h]: the owner's own, else the
   name column's (which keeps a dead node's ID, as the arena keeps its
   handle). *)
let name t h =
  if h = (t.owner_handle [@race_ok]) then t.owner
  else (t.names.ids [@race_ok]).(h)

let slot_id t ~level ~digit ~k = name t (slot_handle t ~level ~digit ~k)

let slot_dist t ~level ~digit ~k =
  let ds = t.dists.(level) in
  if Array.length ds = 0 then 0. else ds.((digit * t.redundancy) + k)

(* [@alloc_ok]: the list view is the API contract; hot paths read the
   index accessors above instead. *)
let[@alloc_ok] slot t ~level ~digit =
  let len = slot_len t ~level ~digit in
  let rec build k =
    if k >= len then []
    else
      { id = slot_id t ~level ~digit ~k; dist = slot_dist t ~level ~digit ~k }
      :: build (k + 1)
  in
  build 0

(* [@alloc_ok]: an option-of-record view for maintenance and tests. *)
let[@alloc_ok] primary t ~level ~digit =
  if slot_len t ~level ~digit = 0 then None
  else
    Some
      {
        id = slot_id t ~level ~digit ~k:0;
        dist = slot_dist t ~level ~digit ~k:0;
      }

let is_hole t ~level ~digit = slot_len t ~level ~digit = 0

(* The slot scans are top-level recursions over explicit operands (as in
   [Route.slot_scan]): a local closure over the table would be allocated on
   every [consider], which runs once per level per candidate of a join. *)

(* Insertion index matching the list reference's stable insert (strict [<]):
   the new entry lands after every entry with an equal or smaller
   distance, preserving arrival order among ties. *)
let rec insertion_pos (dists : float array) ~off ~len (dist : float) k =
  if k < len && dists.(off + k) <= dist then
    insertion_pos dists ~off ~len dist (k + 1)
  else k

(* Index of the entry with arena handle [h] among cells
   [off+k .. off+len-1], or -1. *)
let rec find_handle (hs : int array) ~off ~len h k =
  if k >= len then -1
  else if hs.(off + k) = h then k
  else find_handle hs ~off ~len h (k + 1)

(* Shift row cells [off+pos .. off+len-1] one cell right (the caller
   guarantees capacity) and write the new entry at [off+pos]. *)
let insert_at (hs : int array) (ds : float array) ~off ~len ~pos ~handle
    ~dist =
  for k = len - 1 downto pos do
    hs.(off + k + 1) <- hs.(off + k);
    ds.(off + k + 1) <- ds.(off + k)
  done;
  hs.(off + pos) <- handle;
  ds.(off + pos) <- dist

let remove_at (hs : int array) (ds : float array) ~off ~len ~pos =
  for k = pos to len - 2 do
    hs.(off + k) <- hs.(off + k + 1);
    ds.(off + k) <- ds.(off + k + 1)
  done

(* [consider]'s verdicts other than "added", below the -1 of an add into
   a free cell (every handle is >= 0). *)
let known = -2
let rejected = -3

(* A row-less level gets its row here: for R > 1 every offer that reaches
   it is added (the level holds at most the owner). *)
let consider t ~level ~candidate ~handle ~dist =
  if handle = t.owner_handle then known
  else begin
    let digit = Node_id.digit candidate level in
    if not (has_row t level) then alloc_row t level;
    let hs = t.handles.(level) and ds = t.dists.(level) in
    let off = digit * t.redundancy in
    let len = hs.(len_at t digit) in
    let found = find_handle hs ~off ~len handle 0 in
    if found >= 0 then begin
      (* Refresh the recorded distance (it may have been estimated). *)
      remove_at hs ds ~off ~len ~pos:found;
      let pos = insertion_pos ds ~off ~len:(len - 1) dist 0 in
      insert_at hs ds ~off ~len:(len - 1) ~pos ~handle ~dist;
      known
    end
    else if len < t.redundancy then begin
      let pos = insertion_pos ds ~off ~len dist 0 in
      insert_at hs ds ~off ~len ~pos ~handle ~dist;
      hs.(len_at t digit) <- len + 1;
      t.filled.(level) <- t.filled.(level) lor (1 lsl digit);
      -1
    end
    else begin
      (* Full slot: the farthest entry is dropped; if that would be the
         candidate itself, reject without touching the slot. *)
      let pos = insertion_pos ds ~off ~len dist 0 in
      if pos >= t.redundancy then rejected
      else begin
        let evicted = hs.(off + len - 1) in
        insert_at hs ds ~off ~len:(len - 1) ~pos ~handle ~dist;
        evicted
      end
    end
  end

(* [@alloc_ok]: the Section 6.4 re-measurement pass, run by maintenance
   between joins, not inside one.  Row-less levels hold only the owner
   entry, which re-measures to 0 and never moves. *)
let[@alloc_ok] update_distances t ~measure =
  let changed = ref 0 in
  for level = 0 to t.levels - 1 do
    if has_row t level then begin
      let hs = t.handles.(level) and ds = t.dists.(level) in
      for digit = 0 to t.base - 1 do
        let len = hs.(len_at t digit) in
        if len > 0 then begin
          let off = digit * t.redundancy in
          let old_primary = hs.(off) in
          (* Re-measure in place, compacting out dropped entries. *)
          let m = ref 0 in
          for k = 0 to len - 1 do
            let h = hs.(off + k) in
            match if h = t.owner_handle then Some 0. else measure h with
            | Some d ->
                hs.(off + !m) <- h;
                ds.(off + !m) <- d;
                incr m
            | None -> ()
          done;
          hs.(len_at t digit) <- !m;
          if !m = 0 then
            t.filled.(level) <- t.filled.(level) land lnot (1 lsl digit);
          (* Stable insertion sort by distance (ties keep their order, the
             same result as the list reference's [List.sort Float.compare]). *)
          for k = 1 to !m - 1 do
            let h = hs.(off + k) and d = ds.(off + k) in
            let j = ref (k - 1) in
            while !j >= 0 && ds.(off + !j) > d do
              hs.(off + !j + 1) <- hs.(off + !j);
              ds.(off + !j + 1) <- ds.(off + !j);
              decr j
            done;
            hs.(off + !j + 1) <- h;
            ds.(off + !j + 1) <- d
          done;
          if !m = 0 || hs.(off) <> old_primary then incr changed
        end
      done
    end
  done;
  !changed

(* [@alloc_ok]: the found-levels list is the API contract; runs once per
   dropped link (departure or dead-neighbour repair), not per candidate.
   A row-less level holds no node but the owner. *)
let[@alloc_ok] remove t handle =
  if handle = t.owner_handle then []
  else begin
    let target = name t handle and found = ref [] in
    for level = 0 to t.levels - 1 do
      let digit = Node_id.digit target level in
      if digit < t.base && has_row t level then begin
        let hs = t.handles.(level) in
        let off = digit * t.redundancy in
        let len = hs.(len_at t digit) in
        let pos = find_handle hs ~off ~len handle 0 in
        if pos >= 0 then begin
          remove_at hs t.dists.(level) ~off ~len ~pos;
          hs.(len_at t digit) <- len - 1;
          if len = 1 then
            t.filled.(level) <- t.filled.(level) land lnot (1 lsl digit);
          found := level :: !found
        end
      end
    done;
    List.rev !found
  end

(* --- backpointers --- *)

(* Position of a holder in a level's vector, or -1: matched by [handle]
   (one int compare per holder) when the caller has one, by the name of
   each holder's handle otherwise. *)
let rec find_holder t (hs : int array) ~len id handle k =
  if k >= len then -1
  else if
    (handle >= 0 && hs.(k) = handle)
    || (handle < 0 && Node_id.equal (name t hs.(k)) id)
  then k
  else find_holder t hs ~len id handle (k + 1)

let initial_bp_capacity = 4

(* [@alloc_ok]: amortized vector growth, O(log n) times per level over a
   node's life. *)
let[@alloc_ok] grow_backpointers t ~level =
  let hs = t.bp_handles.(level) in
  let hs' = Array.make (Int.max initial_bp_capacity (2 * Array.length hs)) (-1) in
  Array.blit hs 0 hs' 0 t.bp_lens.(level);
  t.bp_handles.(level) <- hs'

let add_backpointer t ~level handle =
  if handle <> t.owner_handle then begin
    let len = t.bp_lens.(level) in
    if len = Array.length t.bp_handles.(level) then grow_backpointers t ~level;
    t.bp_handles.(level).(len) <- handle;
    t.bp_lens.(level) <- len + 1
  end

let remove_backpointer ?(handle = -1) t ~level id =
  let hs = t.bp_handles.(level) in
  let len = t.bp_lens.(level) in
  let k = find_holder t hs ~len id handle 0 in
  if k >= 0 then begin
    Array.blit hs (k + 1) hs k (len - k - 1);
    t.bp_lens.(level) <- len - 1
  end

let backpointer_len t ~level = t.bp_lens.(level)

let backpointer_id t ~level ~k = name t t.bp_handles.(level).(k)

let backpointer_handle t ~level ~k = t.bp_handles.(level).(k)

(* [@alloc_ok]: list views for maintenance, the audit and tests; the
   descent reads the index accessors above. *)
let[@alloc_ok] backpointers t ~level =
  List.init t.bp_lens.(level) (fun k -> backpointer_id t ~level ~k)

(* Consed in (level, vector) order: top level down, newest holder first.
   Kept for perfbench's join-leave probe and the tests; Delete.voluntary
   reads the vectors by handle in this same order. *)
let[@alloc_ok] all_backpointers t =
  let acc = ref [] in
  for level = 0 to t.levels - 1 do
    for k = 0 to t.bp_lens.(level) - 1 do
      acc := (level, backpointer_id t ~level ~k) :: !acc
    done
  done;
  !acc

let iter_handles t f =
  for level = 0 to t.levels - 1 do
    let hs = t.handles.(level) in
    if Array.length hs = 0 then begin
      if t.filled.(level) <> 0 then f ~level t.owner_handle
    end
    else
      for digit = 0 to t.base - 1 do
        for k = 0 to hs.(len_at t digit) - 1 do
          f ~level hs.((digit * t.redundancy) + k)
        done
      done
  done

(* [@alloc_ok]: snapshots each slot as a list; maintenance and audit
   walks only. *)
let[@alloc_ok] iter_entries t f =
  for level = 0 to t.levels - 1 do
    for digit = 0 to t.base - 1 do
      (* snapshot, so [f] may remove entries from the slot it is visiting *)
      List.iter (fun e -> f ~level ~digit e) (slot t ~level ~digit)
    done
  done

(* Read straight off the packed rows (no per-slot list build): the
   scale-tier sweep calls this once per node over 10^5..10^6 tables.
   Row-less levels hold only the owner.  [@alloc_ok]: one counter cell per
   table. *)
let[@alloc_ok] entry_count t =
  let c = ref 0 in
  for level = 0 to t.levels - 1 do
    let hs = t.handles.(level) in
    if Array.length hs > 0 then
      for digit = 0 to t.base - 1 do
        let off = digit * t.redundancy in
        for k = off to off + hs.(len_at t digit) - 1 do
          if hs.(k) <> t.owner_handle then incr c
        done
      done
  done;
  !c

let backpointer_count t = Array.fold_left ( + ) 0 t.bp_lens

let word = 8

(* Resident-size estimate of one table: the record, its per-level row and
   backpointer pointer arrays, each allocated row (two arrays, exact) and
   each backpointer vector at its current capacity.  A level without a row
   or without holders shares the static empty arrays and costs nothing
   more.  IDs live once, in the network's name column, and are counted by
   {!Network.memory_footprint}, not here.  [@alloc_ok]: footprint
   accounting, once per node per report. *)
let[@alloc_ok] approx_bytes t =
  let arr len = (len + 1) * word in
  let vec len = if len = 0 then 0 else arr len in
  let fixed = (12 * word) + (5 * arr t.levels) in
  let per_level = ref 0 in
  for level = 0 to t.levels - 1 do
    per_level :=
      !per_level
      + vec (Array.length t.handles.(level))
      + vec (Array.length t.dists.(level))
      + vec (Array.length t.bp_handles.(level))
  done;
  fixed + !per_level

(* [@alloc_ok]: the hole list feeds the repair sweep, once per node per
   sweep. *)
let[@alloc_ok] holes t =
  let acc = ref [] in
  for level = t.levels - 1 downto 0 do
    for digit = t.base - 1 downto 0 do
      if slot_len t ~level ~digit = 0 then acc := (level, digit) :: !acc
    done
  done;
  !acc

(* [@alloc_ok]: test fault injection only; always gives the level a row. *)
let[@alloc_ok] inject_slot_for_test t ~level ~digit entries =
  if List.length entries > t.redundancy then
    invalid_arg "Routing_table.inject_slot_for_test: beyond slot capacity";
  if not (has_row t level) then alloc_row t level;
  let hs = t.handles.(level) and ds = t.dists.(level) in
  let off = digit * t.redundancy in
  List.iteri
    (fun k (h, d) ->
      hs.(off + k) <- h;
      ds.(off + k) <- d)
    entries;
  hs.(len_at t digit) <- List.length entries;
  match entries with
  | [] -> t.filled.(level) <- t.filled.(level) land lnot (1 lsl digit)
  | _ :: _ -> t.filled.(level) <- t.filled.(level) lor (1 lsl digit)
