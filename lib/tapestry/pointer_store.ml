(* Column layout (DESIGN.md section 8.9).  A node's records live at
   indices [0 .. len-1] of four parallel columns; removal is swap-remove
   (the last record moves into the hole).  Records of the same GUID are
   chained newest-first through [next] (-1 ends a chain).  No hash column:
   a [Node_id.t] is one immediate int, so the GUID column is an int
   column, [Node_id.equal] is one int compare and [Node_id.hash] reads
   the digits out of the word.  [heads] is an open-addressed GUID index (linear probing from [hash land mask], load at most 1/2,
   backward-shift deletion): each occupied slot holds the index of its
   GUID's chain head, -1 marks an empty slot.  The GUID of a slot is that
   of its head record, so the index stores one int per slot and no keys.

   [packed] holds a record's server handle in bits 0-25, its previous
   hop plus one in bits 26-52 and its root index from bit 53, so the
   (server, root index) pair a lookup matches is one masked int compare.

   The columns are allocated lazily, on the first [store]: every node
   owns a pointer store but in a large mesh only the O(objects * log n)
   nodes on publish paths ever hold a record, so the empty representation
   must cost words, not vectors.  An empty store shares [empty], which
   has no index slots and is never written. *)
type cols = {
  mutable guid : Node_id.t array;
  mutable packed : int array;
  mutable expires : float array;
  mutable next : int array;
  mutable len : int;
  mutable heads : int array;  (** length a power of two *)
  mutable nguids : int;
}

type t = { mutable c : cols }

let server_bits = 26
let prev_shift = server_bits
let prev_bits = 27
let root_shift = prev_shift + prev_bits
let root_bits = 9
let max_root_idx = (1 lsl root_bits) - 1
let server_mask = (1 lsl server_bits) - 1
let prev_mask = (1 lsl prev_bits) - 1
let key_mask = lnot (prev_mask lsl prev_shift)

(* A record's [packed] cell; each field must fit its bits. *)
let pack ~server ~root_idx ~previous =
  if
    server lsr server_bits <> 0
    || (previous + 1) lsr prev_bits <> 0
    || root_idx lsr root_bits <> 0
  then invalid_arg "Pointer_store.store: handle or root index out of range";
  server lor ((previous + 1) lsl prev_shift) lor (root_idx lsl root_shift)

(* The (server, root index) part of a [packed] cell that lookups match. *)
let key ~server ~root_idx = server lor (root_idx lsl root_shift)

let previous_of packed = ((packed lsr prev_shift) land prev_mask) - 1
let server c i = c.packed.(i) land server_mask
let root_idx c i = c.packed.(i) lsr root_shift
let previous c i = previous_of c.packed.(i)

(* Fills the GUID column past [len].  An ID keeps nothing alive, so a
   removed record's cell is left as it is. *)
let no_guid = Node_id.make [||]

(* [@alloc_ok]: the shared [empty], then once per node, on its first
   record (growth reallocates the columns one by one) *)
let[@alloc_ok] columns ~cap ~slots =
  {
    guid = Array.make cap no_guid;
    packed = Array.make cap 0;
    expires = Array.create_float cap;
    next = Array.make cap (-1);
    len = 0;
    heads = Array.make slots (-1);
    nguids = 0;
  }

let empty = columns ~cap:0 ~slots:0

(* [@alloc_ok]: one handle per node, at node creation *)
let[@alloc_ok] create () = { c = empty }

let cols t = t.c

let force t =
  if Array.length t.c.heads = 0 then t.c <- columns ~cap:4 ~slots:8;
  t.c

(* ---- GUID index ---- *)

(* The slot holding [guid]'s chain head, or [-1 - s] where [s] is the
   empty slot that ends the probe (where [guid] would go). *)
let rec probe c guid mask s =
  let i = c.heads.(s) in
  if i < 0 then -1 - s
  else if Node_id.equal c.guid.(i) guid then s
  else probe c guid mask ((s + 1) land mask)

let find_slot c guid =
  let mask = Array.length c.heads - 1 in
  probe c guid mask (Node_id.hash guid land mask)

(* Is [home] cyclically within (hole, j]?  Then the entry at [j] cannot
   move back into [hole] without landing before its home slot. *)
let stays ~home ~hole j =
  if hole <= j then hole < home && home <= j else hole < home || home <= j

(* Backward-shift deletion: empty [hole], pulling later entries of the
   probe run back so every entry stays reachable from its home slot. *)
let rec shift_back c mask hole j =
  let i = c.heads.(j) in
  if i < 0 then c.heads.(hole) <- -1
  else if stays ~home:(Node_id.hash c.guid.(i) land mask) ~hole j then
    shift_back c mask hole ((j + 1) land mask)
  else begin
    c.heads.(hole) <- i;
    shift_back c mask j ((j + 1) land mask)
  end

let delete_slot c s =
  let mask = Array.length c.heads - 1 in
  shift_back c mask s ((s + 1) land mask);
  c.nguids <- c.nguids - 1

let rec first_empty (heads : int array) mask s =
  if heads.(s) < 0 then s else first_empty heads mask ((s + 1) land mask)

(* Re-insert every chain head into a fresh index of [slots] slots. *)
let rehash c slots =
  let old = c.heads in
  let heads = Array.make slots (-1) in
  let mask = Array.length heads - 1 in
  for s = 0 to Array.length old - 1 do
    let i = old.(s) in
    if i >= 0 then
      heads.(first_empty heads mask (Node_id.hash c.guid.(i) land mask)) <- i
  done;
  c.heads <- heads

(* ---- columns ---- *)

(* A column copied into [cap] cells, [fill] past its old length. *)
let grown a cap fill =
  let b = Array.make cap fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* [grown] for the unboxed float column (cells past [len] are never
   read, so they need no fill). *)
let grown_floats a cap =
  let b = Array.create_float cap in
  Array.blit a 0 b 0 (Array.length a);
  b

let resize_records c cap =
  c.guid <- grown c.guid cap no_guid;
  c.packed <- grown c.packed cap 0;
  c.expires <- grown_floats c.expires cap;
  c.next <- grown c.next cap (-1)

(* The record in [i]'s chain that points at [target]. *)
let rec chain_pred (next : int array) target i =
  if next.(i) = target then i else chain_pred next target next.(i)

(* Record [i] is already unlinked from its chain: move the last record
   into its place and repoint whichever link named the last index. *)
let swap_remove c i =
  let last = c.len - 1 in
  if i <> last then begin
    let g = c.guid.(last) in
    c.guid.(i) <- g;
    c.packed.(i) <- c.packed.(last);
    c.expires.(i) <- c.expires.(last);
    c.next.(i) <- c.next.(last);
    let s = find_slot c g in
    let head = c.heads.(s) in
    if head = last then c.heads.(s) <- i
    else c.next.(chain_pred c.next last head) <- i
  end;
  c.next.(last) <- -1;
  c.len <- last

(* Unlink record [i] (whose chain head sits in slot [s]) and drop it. *)
let unlink_and_drop c s i =
  let head = c.heads.(s) in
  (if head = i then begin
     if c.next.(i) < 0 then delete_slot c s else c.heads.(s) <- c.next.(i)
   end
   else c.next.(chain_pred c.next i head) <- c.next.(i));
  swap_remove c i

(* The record whose (server, root index) is [k] in the chain from [i]. *)
let rec chain_find c k i =
  if i < 0 then -1
  else if c.packed.(i) land key_mask = k then i
  else chain_find c k c.next.(i)

(* The record keyed [k] in the chain headed from slot [s] (if [s] is a
   hit), or -1. *)
let chain_at c s k = if s < 0 then -1 else chain_find c k c.heads.(s)

(* ---- operations ---- *)

(* Append a record whose chain successor is [next]; returns its index. *)
let push c ~guid ~packed ~expires ~next =
  if c.len = Array.length c.guid then resize_records c (2 * c.len);
  let i = c.len in
  c.guid.(i) <- guid;
  c.packed.(i) <- packed;
  c.expires.(i) <- expires;
  c.next.(i) <- next;
  c.len <- i + 1;
  i

(* The capacity doubling from [cap] reaches once it holds [need]. *)
let rec doubled cap need = if cap >= need then cap else doubled (2 * cap) need

(* [store] doubles the columns when full and the index when a new GUID
   would take it past half load, so room for [n] more records of
   [guids] new GUIDs is the size those doublings would reach, allocated
   once. *)
let reserve t ~guids n =
  if n > 0 then begin
    let c = t.c in
    if Array.length c.heads = 0 then
      t.c <- columns ~cap:(doubled 4 n) ~slots:(doubled 8 (2 * guids))
    else begin
      let cap = doubled (Array.length c.guid) (c.len + n) in
      if cap > Array.length c.guid then resize_records c cap;
      let slots = doubled (Array.length c.heads) (2 * (c.nguids + guids)) in
      if slots > Array.length c.heads then rehash c slots
    end
  end

(* below the -1 a refresh returns when the record had no previous hop *)
let fresh = -2

let store t ~guid ~server ~root_idx ~previous ~expires =
  let packed = pack ~server ~root_idx ~previous in
  let c = force t in
  let s = find_slot c guid in
  let i = chain_at c s (packed land key_mask) in
  if i >= 0 then begin
    let old = previous_of c.packed.(i) in
    c.packed.(i) <- packed;
    if expires > c.expires.(i) then c.expires.(i) <- expires;
    old
  end
  else begin
    if s >= 0 then begin
      let i = push c ~guid ~packed ~expires ~next:c.heads.(s) in
      c.heads.(s) <- i
    end
    else begin
      let s =
        if 2 * (c.nguids + 1) > Array.length c.heads then begin
          rehash c (2 * Array.length c.heads);
          -1 - find_slot c guid
        end
        else -1 - s
      in
      let i = push c ~guid ~packed ~expires ~next:(-1) in
      c.heads.(s) <- i;
      c.nguids <- c.nguids + 1
    end;
    fresh
  end

(* The empty store has no slots: every lookup below starts here. *)
let head_of c guid =
  if Array.length c.heads = 0 then -1
  else
    let s = find_slot c guid in
    if s < 0 then -1 else c.heads.(s)

let find t ~guid ~server ~root_idx =
  chain_find t.c (key ~server ~root_idx) (head_of t.c guid)

let mem_guid t guid = head_of t.c guid >= 0

let rec chain_exists c ~f i = i >= 0 && (f c i || chain_exists c ~f c.next.(i))

let exists_guid_match t guid ~f = chain_exists t.c ~f (head_of t.c guid)

let rec chain_iter c ~f i =
  if i >= 0 then begin
    f c i;
    chain_iter c ~f c.next.(i)
  end

let iter_guid t guid ~f = chain_iter t.c ~f (head_of t.c guid)

let remove t ~guid ~server ~root_idx =
  let c = t.c in
  if Array.length c.heads = 0 then false
  else begin
    let s = find_slot c guid in
    let i = chain_at c s (key ~server ~root_idx) in
    if i >= 0 then unlink_and_drop c s i;
    i >= 0
  end

let size t = t.c.len

(* Scans the columns downwards, so the record a swap-remove moves into
   index [i] (from the top) has already been examined. *)
let rec expire_from c ~now i n =
  if i < 0 then n
  else if c.expires.(i) < now then begin
    unlink_and_drop c (find_slot c c.guid.(i)) i;
    expire_from c ~now (i - 1) (n + 1)
  end
  else expire_from c ~now (i - 1) n

let expire t ~now = expire_from t.c ~now (t.c.len - 1) 0

let clear t = t.c <- empty

let word = 8

(* Resident-size estimate.  The handle (2 words), the column record (8)
   and, each with a header word, the four record-capacity columns (guid,
   packed, the unboxed expires, next) and the index.
   No per-record block: a record is one cell of each column.  An
   estimate, not an accounting — used by {!Network.memory_footprint} and
   the scale-tier bytes-per-node gauge. *)
let approx_bytes t =
  let c = t.c in
  if Array.length c.heads = 0 then 2 * word
  else (2 + 8 + (4 * (1 + Array.length c.guid)) + 1 + Array.length c.heads) * word
