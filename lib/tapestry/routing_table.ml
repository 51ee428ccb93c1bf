type entry = { id : Node_id.t; dist : float }

(* Packed representation: the [levels * base] slots live in flat parallel
   arrays of capacity [redundancy] each, sorted in place by distance.  A
   slot (level, digit) occupies cells
   [((level * base) + digit) * redundancy ..+ redundancy); [lens] holds the
   live prefix length per slot.  Entries carry the neighbor's network
   handle next to its ID so the routing hot path resolves nodes through the
   O(1) arena with no hashing and no per-hop list allocation.  Vacant [ids]
   cells are filled with the owner's ID (an arbitrary non-null value, never
   read). *)
type t = {
  owner : Node_id.t;
  mutable owner_handle : int;
  redundancy : int;
  base : int;
  levels : int;
  ids : Node_id.t array;
  handles : int array;
  dists : float array;
  lens : int array;
  filled : int array;
      (* per level, bit [digit] set iff that slot is non-empty: digit scans
         in the routing hot path test one bit instead of reading [lens]
         (base <= 32, so a level's mask fits one immediate int) *)
  bp_ids : Node_id.t array array;
  bp_handles : int array array;
  bp_lens : int array;
      (* backpointers per level: a growable vector of (holder id, holder
         arena handle) pairs, the handle -1 when the writer had none.  The
         live prefix [0, bp_lens.(level)) is kept in the order holders were
         first recorded; removal shifts the tail down.  Levels start on
         shared empty arrays and allocate on their first holder. *)
}

let cell t ~level ~digit = (level * t.base) + digit

(* [@alloc_ok]: one table per node, built once at registration. *)
let[@alloc_ok] create (cfg : Config.t) ~owner =
  let levels = cfg.id_digits in
  let cells = levels * cfg.base in
  let t =
    {
      owner;
      owner_handle = -1;
      redundancy = cfg.redundancy;
      base = cfg.base;
      levels;
      ids = Array.make (cells * cfg.redundancy) owner;
      handles = Array.make (cells * cfg.redundancy) (-1);
      dists = Array.make (cells * cfg.redundancy) 0.;
      lens = Array.make cells 0;
      filled = Array.make levels 0;
      bp_ids = Array.make levels [||];
      bp_handles = Array.make levels [||];
      bp_lens = Array.make levels 0;
    }
  in
  (* The owner fills its own digit slot at every level. *)
  for l = 0 to levels - 1 do
    let digit = Node_id.digit owner l in
    t.lens.(cell t ~level:l ~digit) <- 1;
    t.filled.(l) <- 1 lsl digit
  done;
  t

let set_owner_handle t handle =
  t.owner_handle <- handle;
  for level = 0 to t.levels - 1 do
    let off = cell t ~level ~digit:(Node_id.digit t.owner level) * t.redundancy in
    for k = 0 to t.lens.(cell t ~level ~digit:(Node_id.digit t.owner level)) - 1 do
      if Node_id.equal t.ids.(off + k) t.owner then t.handles.(off + k) <- handle
    done
  done

let owner t = t.owner

let owner_handle t = t.owner_handle

let levels t = t.levels

let base t = t.base

let slot_len t ~level ~digit = t.lens.((level * t.base) + digit)

let filled_mask t ~level = t.filled.(level)

let slot_id t ~level ~digit ~k = t.ids.((((level * t.base) + digit) * t.redundancy) + k)

let slot_handle t ~level ~digit ~k =
  t.handles.((((level * t.base) + digit) * t.redundancy) + k)

let slot_dist t ~level ~digit ~k =
  t.dists.((((level * t.base) + digit) * t.redundancy) + k)

(* [@alloc_ok]: the list view is the API contract; hot paths read the
   index accessors above instead. *)
let[@alloc_ok] slot t ~level ~digit =
  let c = cell t ~level ~digit in
  let off = c * t.redundancy in
  let rec build k =
    if k >= t.lens.(c) then []
    else { id = t.ids.(off + k); dist = t.dists.(off + k) } :: build (k + 1)
  in
  build 0

(* [@alloc_ok]: an option-of-record view for maintenance and tests. *)
let[@alloc_ok] primary t ~level ~digit =
  let c = cell t ~level ~digit in
  if t.lens.(c) = 0 then None
  else
    let off = c * t.redundancy in
    Some { id = t.ids.(off); dist = t.dists.(off) }

let is_hole t ~level ~digit = t.lens.((level * t.base) + digit) = 0

(* The slot scans are top-level recursions over explicit operands (as in
   [Route.scan]): a local closure over the table would be allocated on
   every [consider], which runs once per level per candidate of a join. *)

(* Insertion index matching the list reference's stable insert (strict [<]):
   the new entry lands after every entry with an equal or smaller
   distance, preserving arrival order among ties. *)
let rec insertion_pos (dists : float array) ~off ~len (dist : float) k =
  if k < len && dists.(off + k) <= dist then
    insertion_pos dists ~off ~len dist (k + 1)
  else k

(* Index of [id] among cells [off+k .. off+len-1], or -1. *)
let rec find_id (ids : Node_id.t array) ~off ~len id k =
  if k >= len then -1
  else if Node_id.equal ids.(off + k) id then k
  else find_id ids ~off ~len id (k + 1)

(* Index of the entry with arena handle [h] among the same cells, or -1:
   one int compare per cell where [find_id] chases an ID pointer. *)
let rec find_handle (hs : int array) ~off ~len h k =
  if k >= len then -1
  else if hs.(off + k) = h then k
  else find_handle hs ~off ~len h (k + 1)

(* Shift [off+pos .. off+len-1] one cell right (the caller guarantees
   capacity) and write the new entry at [off+pos]. *)
let insert_at t ~off ~len ~pos ~id ~handle ~dist =
  for k = len - 1 downto pos do
    t.ids.(off + k + 1) <- t.ids.(off + k);
    t.handles.(off + k + 1) <- t.handles.(off + k);
    t.dists.(off + k + 1) <- t.dists.(off + k)
  done;
  t.ids.(off + pos) <- id;
  t.handles.(off + pos) <- handle;
  t.dists.(off + pos) <- dist

let remove_at t ~off ~len ~pos =
  for k = pos to len - 2 do
    t.ids.(off + k) <- t.ids.(off + k + 1);
    t.handles.(off + k) <- t.handles.(off + k + 1);
    t.dists.(off + k) <- t.dists.(off + k + 1)
  done;
  t.ids.(off + len - 1) <- t.owner;
  t.handles.(off + len - 1) <- -1

(* [consider]'s verdicts other than "added", below the -1 of an add into
   a free cell (every handle is >= 0). *)
let known = -2
let rejected = -3

let consider t ~level ~candidate ~handle ~dist =
  if handle = t.owner_handle then known
  else begin
    let digit = Node_id.digit candidate level in
    let c = cell t ~level ~digit in
    let off = c * t.redundancy in
    let len = t.lens.(c) in
    let found = find_handle t.handles ~off ~len handle 0 in
    if found >= 0 then begin
      (* Refresh the recorded distance (it may have been estimated). *)
      remove_at t ~off ~len ~pos:found;
      let pos = insertion_pos t.dists ~off ~len:(len - 1) dist 0 in
      insert_at t ~off ~len:(len - 1) ~pos ~id:candidate ~handle ~dist;
      known
    end
    else if len < t.redundancy then begin
      let pos = insertion_pos t.dists ~off ~len dist 0 in
      insert_at t ~off ~len ~pos ~id:candidate ~handle ~dist;
      t.lens.(c) <- len + 1;
      t.filled.(level) <- t.filled.(level) lor (1 lsl digit);
      -1
    end
    else begin
      (* Full slot: the farthest entry is dropped; if that would be the
         candidate itself, reject without touching the slot. *)
      let pos = insertion_pos t.dists ~off ~len dist 0 in
      if pos >= t.redundancy then rejected
      else begin
        let evicted = t.handles.(off + len - 1) in
        for k = len - 2 downto pos do
          t.ids.(off + k + 1) <- t.ids.(off + k);
          t.handles.(off + k + 1) <- t.handles.(off + k);
          t.dists.(off + k + 1) <- t.dists.(off + k)
        done;
        t.ids.(off + pos) <- candidate;
        t.handles.(off + pos) <- handle;
        t.dists.(off + pos) <- dist;
        evicted
      end
    end
  end

(* [@alloc_ok]: the Section 6.4 re-measurement pass, run by maintenance
   between joins, not inside one. *)
let[@alloc_ok] update_distances t ~measure =
  let changed = ref 0 in
  for level = 0 to t.levels - 1 do
    for digit = 0 to t.base - 1 do
      let c = cell t ~level ~digit in
      let len = t.lens.(c) in
      if len > 0 then begin
        let off = c * t.redundancy in
        let old_primary = t.ids.(off) in
        (* Re-measure in place, compacting out dropped entries. *)
        let m = ref 0 in
        for k = 0 to len - 1 do
          let id = t.ids.(off + k) in
          let d =
            if Node_id.equal id t.owner then Some 0.
            else measure t.handles.(off + k)
          in
          match d with
          | Some d ->
              t.ids.(off + !m) <- id;
              t.handles.(off + !m) <- t.handles.(off + k);
              t.dists.(off + !m) <- d;
              incr m
          | None -> ()
        done;
        for k = !m to len - 1 do
          t.ids.(off + k) <- t.owner;
          t.handles.(off + k) <- -1
        done;
        t.lens.(c) <- !m;
        if !m = 0 then
          t.filled.(level) <- t.filled.(level) land lnot (1 lsl digit);
        (* Stable insertion sort by distance (ties keep their order, the
           same result as the list reference's [List.sort Float.compare]). *)
        for k = 1 to !m - 1 do
          let id = t.ids.(off + k)
          and h = t.handles.(off + k)
          and d = t.dists.(off + k) in
          let j = ref (k - 1) in
          while !j >= 0 && t.dists.(off + !j) > d do
            t.ids.(off + !j + 1) <- t.ids.(off + !j);
            t.handles.(off + !j + 1) <- t.handles.(off + !j);
            t.dists.(off + !j + 1) <- t.dists.(off + !j);
            decr j
          done;
          t.ids.(off + !j + 1) <- id;
          t.handles.(off + !j + 1) <- h;
          t.dists.(off + !j + 1) <- d
        done;
        if !m = 0 then incr changed
        else if not (Node_id.equal t.ids.(off) old_primary) then incr changed
      end
    done
  done;
  !changed

(* [@alloc_ok]: the found-levels list is the API contract; runs once per
   dropped link (departure or dead-neighbour repair), not per candidate. *)
let[@alloc_ok] remove t target =
  if Node_id.equal target t.owner then []
  else begin
    let found = ref [] in
    for level = 0 to t.levels - 1 do
      let digit = Node_id.digit target level in
      if digit < t.base then begin
        let c = cell t ~level ~digit in
        let off = c * t.redundancy in
        let len = t.lens.(c) in
        let pos = find_id t.ids ~off ~len target 0 in
        if pos >= 0 then begin
          remove_at t ~off ~len ~pos;
          t.lens.(c) <- len - 1;
          if len = 1 then
            t.filled.(level) <- t.filled.(level) land lnot (1 lsl digit);
          found := level :: !found
        end
      end
    done;
    List.rev !found
  end

(* --- backpointers --- *)

(* Position of holder [id] in a level's vector, or -1: matched by
   [handle] (one int compare per holder) when the caller has one, by id
   otherwise.  IDs and handles are both unique per registered node, so
   either key finds the same holder. *)
let rec find_holder (ids : Node_id.t array) (hs : int array) ~len id handle k =
  if k >= len then -1
  else if
    (handle >= 0 && hs.(k) = handle)
    || (handle < 0 && Node_id.equal ids.(k) id)
  then k
  else find_holder ids hs ~len id handle (k + 1)

let initial_bp_capacity = 4

(* [@alloc_ok]: amortized vector growth, O(log n) times per level over a
   node's life. *)
let[@alloc_ok] grow_backpointers t ~level id =
  let ids = t.bp_ids.(level) and hs = t.bp_handles.(level) in
  let len = t.bp_lens.(level) in
  let cap = Int.max initial_bp_capacity (2 * Array.length ids) in
  let ids' = Array.make cap id and hs' = Array.make cap (-1) in
  Array.blit ids 0 ids' 0 len;
  Array.blit hs 0 hs' 0 len;
  t.bp_ids.(level) <- ids';
  t.bp_handles.(level) <- hs'

let add_backpointer t ~level ~handle id =
  if handle <> t.owner_handle then begin
    let len = t.bp_lens.(level) in
    if len = Array.length t.bp_ids.(level) then grow_backpointers t ~level id;
    t.bp_ids.(level).(len) <- id;
    t.bp_handles.(level).(len) <- handle;
    t.bp_lens.(level) <- len + 1
  end

let remove_backpointer ?(handle = -1) t ~level id =
  let ids = t.bp_ids.(level) and hs = t.bp_handles.(level) in
  let len = t.bp_lens.(level) in
  let k = find_holder ids hs ~len id handle 0 in
  if k >= 0 then begin
    Array.blit ids (k + 1) ids k (len - k - 1);
    Array.blit hs (k + 1) hs k (len - k - 1);
    (* the vacated cell keeps a live ID; overwrite it with the owner's so
       a removed holder is not retained *)
    ids.(len - 1) <- t.owner;
    hs.(len - 1) <- -1;
    t.bp_lens.(level) <- len - 1
  end

let backpointer_len t ~level = t.bp_lens.(level)

let backpointer_id t ~level ~k = t.bp_ids.(level).(k)

let backpointer_handle t ~level ~k = t.bp_handles.(level).(k)

(* [@alloc_ok]: list views for maintenance, the audit and tests; the
   descent reads the index accessors above. *)
let[@alloc_ok] backpointers t ~level =
  List.init t.bp_lens.(level) (fun k -> t.bp_ids.(level).(k))

(* Consed in (level, vector) order: top level down, newest holder first.
   Kept for perfbench's join-leave probe and the tests; Delete.voluntary
   reads the vectors by handle in this same order. *)
let[@alloc_ok] all_backpointers t =
  let acc = ref [] in
  for level = 0 to t.levels - 1 do
    for k = 0 to t.bp_lens.(level) - 1 do
      acc := (level, t.bp_ids.(level).(k)) :: !acc
    done
  done;
  !acc

let iter_handles t f =
  for cell = 0 to (t.levels * t.base) - 1 do
    for k = 0 to t.lens.(cell) - 1 do
      f ~level:(cell / t.base) t.handles.((cell * t.redundancy) + k)
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

(* Read straight off the packed arrays (no per-slot list build): the
   scale-tier sweep calls this once per node over 10^5..10^6 tables.
   [@alloc_ok]: one counter cell per table. *)
let[@alloc_ok] entry_count t =
  let c = ref 0 in
  for cell = 0 to (t.levels * t.base) - 1 do
    let off = cell * t.redundancy in
    for k = 0 to t.lens.(cell) - 1 do
      if not (Node_id.equal t.ids.(off + k) t.owner) then incr c
    done
  done;
  !c

let backpointer_count t = Array.fold_left ( + ) 0 t.bp_lens

let word = 8

(* Resident-size estimate of one table: the packed slot arrays are exact
   (capacity is fixed at creation), and so are the backpointer vectors (two
   arrays of the level's current capacity; a level never written shares
   the static empty array and costs nothing).  IDs are shared with the
   owning nodes and counted once, by {!Network.memory_footprint}, not
   here.  [@alloc_ok]: footprint accounting, once per node per report. *)
let[@alloc_ok] approx_bytes t =
  let arr len = (len + 1) * word in
  let vec len = if len = 0 then 0 else arr len in
  let fixed =
    (13 * word)
    + arr (Array.length t.ids)
    + arr (Array.length t.handles)
    + arr (Array.length t.dists)
    + arr (Array.length t.lens)
    + arr (Array.length t.filled)
    + arr (Array.length t.bp_ids)
    + arr (Array.length t.bp_handles)
    + arr (Array.length t.bp_lens)
  in
  let backs = ref 0 in
  for level = 0 to t.levels - 1 do
    backs :=
      !backs
      + vec (Array.length t.bp_ids.(level))
      + vec (Array.length t.bp_handles.(level))
  done;
  fixed + !backs

(* [@alloc_ok]: the hole list feeds the repair sweep, once per node per
   sweep. *)
let[@alloc_ok] holes t =
  let acc = ref [] in
  for level = t.levels - 1 downto 0 do
    for digit = t.base - 1 downto 0 do
      if t.lens.((level * t.base) + digit) = 0 then
        acc := (level, digit) :: !acc
    done
  done;
  !acc

(* [@alloc_ok]: test fault injection only. *)
let[@alloc_ok] inject_slot_for_test t ~level ~digit entries =
  if List.length entries > t.redundancy then
    invalid_arg "Routing_table.inject_slot_for_test: beyond slot capacity";
  let c = cell t ~level ~digit in
  let off = c * t.redundancy in
  for k = 0 to t.redundancy - 1 do
    t.ids.(off + k) <- t.owner;
    t.handles.(off + k) <- -1;
    t.dists.(off + k) <- 0.
  done;
  List.iteri
    (fun k (e, h) ->
      t.ids.(off + k) <- e.id;
      t.handles.(off + k) <- h;
      t.dists.(off + k) <- e.dist)
    entries;
  t.lens.(c) <- List.length entries;
  (match entries with
  | [] -> t.filled.(level) <- t.filled.(level) land lnot (1 lsl digit)
  | _ :: _ -> t.filled.(level) <- t.filled.(level) lor (1 lsl digit))
