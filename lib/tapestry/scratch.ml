(* Per-network insertion scratch: reusable flat buffers for the join hot
   path (the Section 3 nearest-neighbor descent and the Section 4
   acknowledged multicast).  All marking is generation-stamped so reuse
   across insertions costs one integer increment instead of clearing or
   reallocating; every array is indexed by (or holds) arena handles, never
   IDs, so the hot path does no hashing.  Single-threaded by construction:
   one scratch per network, and every timed closure on a timeline runs a
   whole stage, so a descent or a multicast never starts inside another
   (joins interleave only at insertion stage boundaries). *)

type t = {
  mutable stamp : int array;
      (* per-handle visited mark: [stamp.(h) = visit_gen] means handle [h]
         was seen by the current traversal *)
  mutable visit_gen : int;
  mutable dist : float array; (* per-handle memoized distance to the joiner *)
  mutable dist_stamp : int array; (* validity mark for [dist] *)
  mutable dist_gen : int;
  mutable cand : int array; (* candidate handles of one descent step *)
  mutable cand_len : int;
  mutable sel : int array; (* bounded selection heap (handles) *)
  mutable cur : int array; (* the surviving level list, between steps *)
  mutable cur_len : int;
  mutable stack : int array; (* multicast DFS: per-frame target segments *)
  mutable sp : int;
  mutable reached : int array; (* multicast visit order (handles) *)
  mutable reached_len : int;
}

(* [@alloc_ok]: one record per network, at network creation. *)
let[@alloc_ok] create () =
  {
    stamp = [||];
    visit_gen = 0;
    dist = [||];
    dist_stamp = [||];
    dist_gen = 0;
    cand = [||];
    cand_len = 0;
    sel = [||];
    cur = [||];
    cur_len = 0;
    stack = [||];
    sp = 0;
    reached = [||];
    reached_len = 0;
  }

(* Grow the handle-indexed arrays to cover [n] handles.  Fresh cells are
   stamped 0; generations start at 1 (see [bump_*]), so a grown cell is
   never spuriously marked. *)
(* [@alloc_ok]: the grow path runs O(log n) times over a network's life;
   the common call is two loads and a comparison. *)
let[@alloc_ok] ensure_handles t ~n =
  if n > Array.length t.stamp then begin
    let cap = max n (max 64 (2 * Array.length t.stamp)) in
    let grow_int a = let b = Array.make cap 0 in Array.blit a 0 b 0 (Array.length a); b in
    let grow_float a = let b = Array.make cap 0. in Array.blit a 0 b 0 (Array.length a); b in
    t.stamp <- grow_int t.stamp;
    t.dist_stamp <- grow_int t.dist_stamp;
    t.dist <- grow_float t.dist
  end

let ensure_sel t ~k =
  if k > Array.length t.sel then t.sel <- Array.make (max k (max 16 (2 * Array.length t.sel))) 0

let bump_visit t =
  t.visit_gen <- t.visit_gen + 1;
  t.visit_gen

let bump_dist t =
  t.dist_gen <- t.dist_gen + 1;
  t.dist_gen

(* Doubled copy of [a], used by the push fast paths below.  The pushes
   themselves are allocation-free (the typed-alloc audit flagged the old
   ref-cell plumbing: two cells per push, in the descent's inner loop);
   growth is amortized and lives here, out of the checked fast path. *)
let grown a len =
  let cap = max 64 (2 * Array.length a) in
  let b = Array.make cap 0 in
  Array.blit a 0 b 0 len;
  b

let push_cand t h =
  if t.cand_len = Array.length t.cand then t.cand <- grown t.cand t.cand_len;
  t.cand.(t.cand_len) <- h;
  t.cand_len <- t.cand_len + 1

let push_stack t h =
  if t.sp = Array.length t.stack then t.stack <- grown t.stack t.sp;
  t.stack.(t.sp) <- h;
  t.sp <- t.sp + 1

let push_reached t h =
  if t.reached_len = Array.length t.reached then
    t.reached <- grown t.reached t.reached_len;
  t.reached.(t.reached_len) <- h;
  t.reached_len <- t.reached_len + 1

(* Save the selected handles as the current level list. *)
let set_cur t src len =
  if len > Array.length t.cur then t.cur <- Array.make (max len 64) 0;
  Array.blit src 0 t.cur 0 len;
  t.cur_len <- len

let word = 8
let arr_bytes a = (Array.length a + 1) * word

let approx_bytes t =
  (15 * word) + arr_bytes t.stamp + arr_bytes t.dist + arr_bytes t.dist_stamp
  + arr_bytes t.cand + arr_bytes t.sel + arr_bytes t.cur + arr_bytes t.stack
  + arr_bytes t.reached
