type result = { reached : Node.t list; tree_edges : int }

(* Watch-list handling (Figure 11): on arrival at a node, scan the watched
   holes it can certify filled and report the filler.  Fillers resolve
   through the arena handle stored next to the entry. *)
(* [@alloc_ok]: the iteration closures here are built per visited node
   but only when a watch list is present (insertions), and the watch
   list itself is O(prefix * base) — join-time, not per-message. *)
let[@alloc_ok] check_watchlist net watchlist on_watch_hit (node : Node.t) =
  match (watchlist, on_watch_hit) with
  | Some wl, Some hit ->
      Array.iteri
        (fun level row ->
          Array.iteri
            (fun digit wanted ->
              if
                wanted
                && Routing_table.slot_len node.Node.table ~level ~digit > 0
              then begin
                let filler =
                  Network.node_of_handle net
                    (Routing_table.slot_handle node.Node.table ~level ~digit
                       ~k:0)
                in
                (* the primary fills the hole; when the primary is the
                   recipient itself, so does the recipient *)
                if Node.is_alive filler then begin
                  row.(digit) <- false;
                  hit ~level ~digit filler
                end
              end)
            row)
        wl
  | _ -> ()

(* The recursive descent of Figure 8 on the packed representation: visited
   marking is a generation stamp indexed by arena handle, the per-digit
   "pinned" target sets are snapshotted as segments of one shared handle
   stack (the worklist), and the multicast prefix lives in a single mutable
   buffer — frame [l] owns cell [l], so extending the prefix is one write
   and the unwind needs no undo (deeper frames never touch shallower
   cells).  Digits iterate over {!Routing_table.filled_mask} (read after
   the payload ran at this node, which may fill slots), so holes cost one
   bit test.  The acknowledgment for each tree edge is charged as that
   edge's subtree completes (Theorem 5's accounting, attributed where the
   ack actually flows), so cost snapshots taken between interleaved staged
   insertions see every ack inside the insertion that caused it.

   [@alloc_ok]: one multicast allocates the prefix buffer, the [descend]/
   [edge] closures, per-frame scan cells and the reached list it returns —
   all per multicast invocation (a join-time operation); the per-node
   digit scan itself runs on the shared scratch. *)
let[@alloc_ok] run ?on_watch_hit ?watchlist net ~start ~prefix ~len ~apply =
  if not (Node_id.has_prefix (start : Node.t).Node.id ~prefix ~len) then
    invalid_arg "Multicast.run: start node lacks the prefix";
  let cfg = net.Network.config in
  let s = net.Network.scratch in
  Scratch.ensure_handles s ~n:net.Network.arena_len;
  let gen = Scratch.bump_visit s in
  s.Scratch.reached_len <- 0;
  s.Scratch.sp <- 0;
  let edges = ref 0 in
  let buf = Array.make cfg.Config.id_digits 0 in
  Array.blit prefix 0 buf 0 len;
  let rec descend (node : Node.t) l =
    if s.Scratch.stamp.(node.Node.handle) <> gen then begin
      s.Scratch.stamp.(node.Node.handle) <- gen;
      Scratch.push_reached s node.Node.handle;
      check_watchlist net watchlist on_watch_hit node;
      apply node
    end;
    if l < cfg.Config.id_digits then begin
      let table = node.Node.table in
      let mask = ref (Routing_table.filled_mask table ~level:l) in
      while !mask <> 0 do
        let j = Routing_table.ntz !mask in
        mask := !mask land (!mask - 1);
        (* Snapshot this digit's target set: one settled ("unpinned") entry
           AND every inserting ("pinned") entry (Section 4.4, Lemma 4), in
           slot order — entries for nodes that are still inserting are not
           yet well-connected, so a tree rooted through a half-joined node
           would miss its siblings if they were skipped.  The snapshot
           happens before any recursion because the payload and lazy
           failure repair may rewrite the slot under us; the settled pick
           (first core alive) rides in a local, the pinned in a stack
           segment. *)
        let base_off = s.Scratch.sp in
        let settled = ref (-1) in
        for k = 0 to Routing_table.slot_len table ~level:l ~digit:j - 1 do
          let h = Routing_table.slot_handle table ~level:l ~digit:j ~k in
          let n = Network.node_of_handle net h in
          if Node.is_alive n then begin
            if Node.is_core n then begin
              if !settled < 0 then settled := h
            end
            else Scratch.push_stack s h
          end
        done;
        let top = s.Scratch.sp in
        buf.(l) <- j;
        let edge h =
          if h = node.Node.handle then
            (* message to self: no network cost, deeper prefix *)
            descend node (l + 1)
          else if s.Scratch.stamp.(h) <> gen then begin
            incr edges;
            let next = Network.node_of_handle net h in
            Network.charge_aside net node next;
            descend next (l + 1);
            (* acknowledgment back along this tree edge *)
            Simnet.Cost.message net.Network.cost ~dist:0.
          end
        in
        if !settled >= 0 then edge !settled;
        for idx = base_off to top - 1 do
          edge s.Scratch.stack.(idx)
        done;
        s.Scratch.sp <- base_off
      done
    end
  in
  descend start len;
  let reached = ref [] in
  for i = s.Scratch.reached_len - 1 downto 0 do
    reached := Network.node_of_handle net s.Scratch.reached.(i) :: !reached
  done;
  { reached = !reached; tree_edges = !edges }
