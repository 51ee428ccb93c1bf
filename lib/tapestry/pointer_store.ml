type record = {
  guid : Node_id.t;
  server : int;
  root_idx : int;
  mutable previous : int;
  mutable expires : float;
}

(* Packed layout (DESIGN.md section 8.9).  A node's records live in one
   dense vector [recs.(0 .. len-1)]; removal is swap-remove (the last
   record moves into the hole).  Records of the same GUID are chained
   newest-first through [next] (-1 ends a chain), and [ghash.(i)] caches
   [Node_id.hash recs.(i).guid].  [heads] is an open-addressed GUID index
   (linear probing from [hash land mask], load at most 1/2, backward-shift
   deletion): each occupied slot holds the index of its GUID's chain head,
   -1 marks an empty slot.  The GUID of a slot is that of its head record,
   so the index stores one int per slot and no keys.

   The packed part is allocated lazily, on the first [store]: every node
   owns a pointer store but in a large mesh only the O(objects * log n)
   nodes on publish paths ever hold a record, so the empty representation
   must cost words, not vectors. *)
type packed = {
  mutable recs : record array;
  mutable next : int array;
  mutable ghash : int array;
  mutable len : int;
  mutable heads : int array;  (** length a power of two *)
  mutable nguids : int;
}

type t = { mutable p : packed option }

(* [@alloc_ok]: one handle per node, at node creation *)
let[@alloc_ok] create () = { p = None }

let initial_records = 4
let initial_slots = 8

(* Fills the vector past [len] so removed records are not kept alive.
   Never handed out and never written. *)
let vacant =
  {
    guid = Node_id.make [||];
    server = -1;
    root_idx = -1;
    previous = -1;
    expires = 0.;
  }

let force t =
  match t.p with
  | Some p -> p
  | None ->
      (* [@alloc_ok]: once per node, on its first record *)
      let[@alloc_ok] p =
        {
          recs = Array.make initial_records vacant;
          next = Array.make initial_records (-1);
          ghash = Array.make initial_records 0;
          len = 0;
          heads = Array.make initial_slots (-1);
          nguids = 0;
        }
      in
      t.p <- Some p;
      p

(* ---- GUID index ---- *)

(* The slot holding [guid]'s chain head, or [-1 - s] where [s] is the
   empty slot that ends the probe (where [guid] would go). *)
let rec probe p guid h mask s =
  let i = p.heads.(s) in
  if i < 0 then -1 - s
  else if p.ghash.(i) = h && Node_id.equal p.recs.(i).guid guid then s
  else probe p guid h mask ((s + 1) land mask)

let find_slot p guid h =
  let mask = Array.length p.heads - 1 in
  probe p guid h mask (h land mask)

(* Is [home] cyclically within (hole, j]?  Then the entry at [j] cannot
   move back into [hole] without landing before its home slot. *)
let stays ~home ~hole j =
  if hole <= j then hole < home && home <= j else hole < home || home <= j

(* Backward-shift deletion: empty [hole], pulling later entries of the
   probe run back so every entry stays reachable from its home slot. *)
let rec shift_back p mask hole j =
  let i = p.heads.(j) in
  if i < 0 then p.heads.(hole) <- -1
  else if stays ~home:(p.ghash.(i) land mask) ~hole j then
    shift_back p mask hole ((j + 1) land mask)
  else begin
    p.heads.(hole) <- i;
    shift_back p mask j ((j + 1) land mask)
  end

let delete_slot p s =
  let mask = Array.length p.heads - 1 in
  shift_back p mask s ((s + 1) land mask);
  p.nguids <- p.nguids - 1

let rec first_empty (heads : int array) mask s =
  if heads.(s) < 0 then s else first_empty heads mask ((s + 1) land mask)

let grow_index p =
  let old = p.heads in
  let heads = Array.make (2 * Array.length old) (-1) in
  let mask = Array.length heads - 1 in
  for s = 0 to Array.length old - 1 do
    let i = old.(s) in
    if i >= 0 then heads.(first_empty heads mask (p.ghash.(i) land mask)) <- i
  done;
  p.heads <- heads

(* ---- dense vector ---- *)

let grow_records p =
  let cap = 2 * Array.length p.recs in
  let recs = Array.make cap vacant in
  let next = Array.make cap (-1) in
  let ghash = Array.make cap 0 in
  Array.blit p.recs 0 recs 0 p.len;
  Array.blit p.next 0 next 0 p.len;
  Array.blit p.ghash 0 ghash 0 p.len;
  p.recs <- recs;
  p.next <- next;
  p.ghash <- ghash

(* The record in [i]'s chain that points at [target]. *)
let rec chain_pred (next : int array) target i =
  if next.(i) = target then i else chain_pred next target next.(i)

(* Record [i] is already unlinked from its chain: move the last record
   into its place and repoint whichever link named the last index. *)
let swap_remove p i =
  let last = p.len - 1 in
  if i <> last then begin
    let moved = p.recs.(last) in
    let h = p.ghash.(last) in
    p.recs.(i) <- moved;
    p.ghash.(i) <- h;
    p.next.(i) <- p.next.(last);
    let s = find_slot p moved.guid h in
    let head = p.heads.(s) in
    if head = last then p.heads.(s) <- i
    else p.next.(chain_pred p.next last head) <- i
  end;
  p.recs.(last) <- vacant;
  p.next.(last) <- -1;
  p.len <- last

(* Unlink record [i] (whose chain head sits in slot [s]) and drop it. *)
let unlink_and_drop p s i =
  let head = p.heads.(s) in
  (if head = i then begin
     if p.next.(i) < 0 then delete_slot p s else p.heads.(s) <- p.next.(i)
   end
   else p.next.(chain_pred p.next i head) <- p.next.(i));
  swap_remove p i

let rec chain_find (recs : record array) (next : int array) ~server ~root_idx i =
  if i < 0 then -1
  else
    let r = recs.(i) in
    if r.root_idx = root_idx && r.server = server then i
    else chain_find recs next ~server ~root_idx next.(i)

(* The record for (server, root_idx) in the chain headed from slot [s]
   (if [s] is a hit), or -1. *)
let chain_at p s ~server ~root_idx =
  if s < 0 then -1 else chain_find p.recs p.next ~server ~root_idx p.heads.(s)

(* ---- operations ---- *)

let push p (r : record) h =
  if p.len = Array.length p.recs then grow_records p;
  let i = p.len in
  p.recs.(i) <- r;
  p.ghash.(i) <- h;
  p.len <- i + 1;
  i

(* below the -1 a refresh returns when the record had no previous hop *)
let fresh = -2

let store t ~guid ~server ~root_idx ~previous ~expires =
  let p = force t in
  let h = Node_id.hash guid in
  let s = find_slot p guid h in
  let i = chain_at p s ~server ~root_idx in
  if i >= 0 then begin
    let r = p.recs.(i) in
    let old = r.previous in
    r.previous <- previous;
    if expires > r.expires then r.expires <- expires;
    old
  end
  else begin
    (* [@alloc_ok]: the stored record itself *)
    let r = ({ guid; server; root_idx; previous; expires } [@alloc_ok]) in
    if s >= 0 then begin
      let i = push p r h in
      p.next.(i) <- p.heads.(s);
      p.heads.(s) <- i
    end
    else begin
      let s =
        if 2 * (p.nguids + 1) > Array.length p.heads then begin
          grow_index p;
          -1 - find_slot p guid h
        end
        else -1 - s
      in
      let i = push p r h in
      p.next.(i) <- -1;
      p.heads.(s) <- i;
      p.nguids <- p.nguids + 1
    end;
    fresh
  end

let find t ~guid ~server ~root_idx =
  match t.p with
  | None -> None
  | Some p ->
      let i =
        chain_at p (find_slot p guid (Node_id.hash guid)) ~server ~root_idx
      in
      if i < 0 then None else Some p.recs.(i)

let head_of t guid =
  match t.p with
  | None -> -1
  | Some p ->
      let s = find_slot p guid (Node_id.hash guid) in
      if s < 0 then -1 else p.heads.(s)

let mem_guid t guid = head_of t guid >= 0

let rec chain_exists (recs : record array) (next : int array) ~f i =
  i >= 0 && (f recs.(i) || chain_exists recs next ~f next.(i))

let exists_guid_match t guid ~f =
  match t.p with
  | None -> false
  | Some p -> chain_exists p.recs p.next ~f (head_of t guid)

let rec chain_iter (recs : record array) (next : int array) ~f i =
  if i >= 0 then begin
    f recs.(i);
    chain_iter recs next ~f next.(i)
  end

let iter_guid t guid ~f =
  match t.p with
  | None -> ()
  | Some p -> chain_iter p.recs p.next ~f (head_of t guid)

let remove t ~guid ~server ~root_idx =
  match t.p with
  | None -> false
  | Some p ->
      let s = find_slot p guid (Node_id.hash guid) in
      let i = chain_at p s ~server ~root_idx in
      if i >= 0 then unlink_and_drop p s i;
      i >= 0

(* [@alloc_ok]: the list is the result, in vector order *)
let[@alloc_ok] records t =
  match t.p with
  | None -> []
  | Some p ->
      let acc = ref [] in
      for i = p.len - 1 downto 0 do
        acc := p.recs.(i) :: !acc
      done;
      !acc

let size t = match t.p with None -> 0 | Some p -> p.len

(* Scans the vector downwards, so the record a swap-remove moves into
   slot [i] (from the top) has already been examined. *)
let rec expire_from p ~now i n =
  if i < 0 then n
  else if p.recs.(i).expires < now then begin
    let r = p.recs.(i) in
    unlink_and_drop p (find_slot p r.guid p.ghash.(i)) i;
    expire_from p ~now (i - 1) (n + 1)
  end
  else expire_from p ~now (i - 1) n

let expire t ~now =
  match t.p with None -> 0 | Some p -> expire_from p ~now (p.len - 1) 0

let clear t = t.p <- None

let word = 8

(* Resident-size estimate.  The handle and its option box (2 + 2 words),
   the packed record (7), three record-capacity vectors (recs, next,
   ghash) and the index, each with a header word; per record the
   payload: the 6-word record (server and previous are unboxed ints)
   and its boxed expiry (2).  An estimate, not an accounting — used by
   {!Network.memory_footprint} and the scale-tier bytes-per-node gauge. *)
let approx_bytes t =
  match t.p with
  | None -> 2 * word
  | Some p ->
      let cap = Array.length p.recs in
      (4 + 7 + (3 * (1 + cap)) + 1 + Array.length p.heads + (p.len * 8))
      * word
