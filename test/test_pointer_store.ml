(* Pointer-store tests.

   - "pinned": a seeded n=256 mesh is driven through publish, unpublish,
     voluntary delete, fail + lazy repair, republish and expiry; after
     each phase the digest of every registered node's sorted pointer
     records (guid, server, root_idx, previous, expires) and the run's
     message totals are compared with values pinned before the store was
     repacked, so any change in which records exist, where they point or
     what the protocols charged shows up phase by phase.
   - "walks": the walks started by the index loops of
     [Maintenance.repoint], [optimize_through] and [Delete.voluntary]
     never write the store being walked (see the case's comment).
   - "differential": the column store and the reference model (the earlier
     two-hashtable store, Pointer_store_model) run the same random
     operation sequences; after every operation their per-guid record
     sets, refresh verdicts, sizes and guid membership must agree, and
     [iter_guid] must list each guid's records in the model's
     newest-first order exactly.  Whole chains are drained record by
     record with [remove], so chain unlinks and backward-shift index
     deletion are exercised at every chain position.  The guid pools
     include groups whose hashes share their low 12 bits, so they collide
     in every index size the tests reach.
   - "alloc": [store] allocates nothing, on a new record (with room) or
     on a refresh; after [reserve], the reserved records allocate
     nothing and keep the columns, at the capacities doubling reaches. *)

open Tapestry
module M = Pointer_store_model

let config = { Config.default with Config.root_set_size = 2 }

let id_str = Node_id.to_string

(* [name] renders the server and previous-hop handles. *)
let record_str name (r : M.record) =
  Printf.sprintf "%s/%s/%d/%s/%h" (id_str r.M.guid) (name r.M.server)
    r.M.root_idx
    (if r.M.previous < 0 then "-" else name r.M.previous)
    r.M.expires

(* Every registered node (arena order), its records sorted, then the
   ambient cost totals.  Handles print as the node IDs they resolve to
   through the arena, so the pins do not depend on how a record names
   a node. *)
let mesh_digest net =
  let name h = id_str (Network.node_of_handle net h).Node.id in
  let b = Buffer.create 65536 in
  Network.iter_registered net (fun (n : Node.t) ->
      Buffer.add_string b (id_str n.Node.id);
      Buffer.add_char b ':';
      M.of_store n.Node.pointers
      |> List.map (record_str name) |> List.sort String.compare
      |> List.iter (fun s ->
             Buffer.add_string b s;
             Buffer.add_char b ';');
      Buffer.add_char b '\n');
  let c = Simnet.Cost.snapshot net.Network.cost in
  Printf.bprintf b "msgs=%d hops=%d latency=%h" c.Simnet.Cost.messages
    c.Simnet.Cost.hops c.Simnet.Cost.latency;
  Digest.to_hex (Digest.string (Buffer.contents b))

let build_mesh () =
  let rng = Simnet.Rng.create 2024 in
  let metric =
    Simnet.Topology.generate Simnet.Topology.Uniform_square ~n:256 ~rng
  in
  Static_build.build ~seed:2025 config metric ~addrs:(List.init 256 Fun.id)

(* The phases; each yields (name, its own counters, mesh digest). *)
let run_phases () =
  let net = build_mesh () in
  let ext = Simnet.Rng.create 77 in
  let pick () = Simnet.Rng.pick_list ext (Network.alive_nodes net) in
  let guid () =
    Node_id.random ~base:config.Config.base ~len:config.Config.id_digits ext
  in
  let ttl = config.Config.pointer_ttl in
  let out = ref [] in
  let phase name summary = out := (name, summary, mesh_digest net) :: !out in
  (* publish: 200 objects with 1-3 replicas each *)
  let objects =
    List.init 200 (fun _ ->
        let g = guid () in
        let copies = 1 + Simnet.Rng.int ext 3 in
        let servers = List.init copies (fun _ -> pick ()) in
        List.iter (fun s -> ignore (Publish.publish net ~server:s g)) servers;
        (g, servers))
  in
  phase "publish" "";
  (* unpublish the first replica of every fourth object *)
  List.iteri
    (fun i (g, servers) ->
      if i mod 4 = 0 then Publish.unpublish net ~server:(List.hd servers) g)
    objects;
  phase "unpublish" "";
  (* four graceful departures *)
  let stats =
    List.init 4 (fun _ ->
        let s = Delete.voluntary net (pick ()) in
        Printf.sprintf "%d/%d/%d" s.Delete.notified s.Delete.pointers_rerouted
          s.Delete.objects_rerooted)
  in
  phase "voluntary" (String.concat "," stats);
  (* three silent failures, each followed by every survivor's lazy repair *)
  for _ = 1 to 3 do
    let victim = pick () in
    Delete.fail net victim;
    List.iter
      (fun owner -> Delete.on_dead_repair net ~owner ~dead:victim.Node.id)
      (Network.alive_nodes net)
  done;
  phase "fail" "";
  (* republish part-way through the TTL, then expire past the original
     deadline: stale branches go, refreshed paths stay *)
  net.Network.clock <- 0.7 *. ttl;
  let republished = Maintenance.republish_all net in
  phase "republish" (string_of_int republished);
  net.Network.clock <- 1.1 *. ttl;
  let expired = Maintenance.expire_all net in
  phase "expire" (string_of_int expired);
  List.rev !out

(* The fail, republish and expire digests were re-pinned when
   [Network.live_neighbours] became a plain (digit, rank) walk: lazy
   repair then charges its messages in another order, and the float
   latency total drops by one ulp (0x1.4019d6aa5d494p+11 to
   0x1.4019d6aa5d493p+11 after fail); every record and the message and
   hop counts are unchanged. *)
let pinned =
  [
    ("publish", "", "5d8e6c95f94b428c96a7584eb2587571");
    ("unpublish", "", "277cb3cd99189e11a69db26cdba61120");
    ( "voluntary",
      "45/4/1,63/3/0,71/3/0,35/11/11",
      "7b50c880f15471d17ee690b09187ff05" );
    ("fail", "", "3d6ea1d66c83f8948029989048571ea4");
    ("republish", "357", "c5ce365cbf1c4b9a4731d9573a662736");
    ("expire", "13", "de8c1d02116dddfe982a367e7c4d2638");
  ]

let test_pinned () =
  let got = run_phases () in
  List.iter2
    (fun (name, summary, digest) (pname, psummary, pdigest) ->
      Alcotest.(check string) "phase order" pname name;
      Alcotest.(check string) (name ^ " counters") psummary summary;
      Alcotest.(check string) (name ^ " records + message totals") pdigest
        digest)
    got pinned

(* ---- walks: the index loops' invariant ---- *)

(* [Maintenance.repoint], [optimize_through] and both phases of
   [Delete.voluntary] loop over a store's indices while the walks they
   start write other stores; that is sound only if no such walk writes
   the store being walked.  On a churned mesh (objects published, some
   nodes failed and lazily repaired, some left gracefully), check every
   walk those loops start against every alive node's columns: each
   [optimize_object_ptrs] (the walk of [repoint], [optimize_through] and
   voluntary's phase 1) and each whole [repoint] and [optimize_through]
   call leaves the node's columns exactly as they were, in index order;
   and voluntary's phase-2 re-root walk, routed with the leaver excluded,
   meets the leaver only where it starts. *)
let test_walks_keep_walked_store () =
  let net = build_mesh () in
  let ext = Simnet.Rng.create 91 in
  let pick () = Simnet.Rng.pick_list ext (Network.alive_nodes net) in
  for _ = 1 to 150 do
    let g = Node_id.random ~base:config.Config.base ~len:config.Config.id_digits ext in
    ignore (Publish.publish net ~server:(pick ()) g)
  done;
  for _ = 1 to 20 do
    Delete.fail net (pick ())
  done;
  Network.iter_alive net (fun n -> ignore (Delete.repair_owner net n));
  for _ = 1 to 5 do
    ignore (Delete.voluntary net (pick ()))
  done;
  let name h = string_of_int h in
  let snap (n : Node.t) = List.map (record_str name) (M.of_store n.Node.pointers) in
  let keeps what (n : Node.t) f =
    let before = snap n in
    f ();
    Alcotest.(check (list string)) (what ^ " at " ^ id_str n.Node.id) before (snap n)
  in
  let walked = ref 0 in
  List.iter
    (fun (n : Node.t) ->
      for i = 0 to Pointer_store.size n.Node.pointers - 1 do
        incr walked;
        keeps "optimize_object_ptrs" n (fun () ->
            Maintenance.optimize_object_ptrs net ~changed:n i)
      done;
      keeps "repoint" n (fun () -> ignore (Maintenance.repoint net n));
      let t = n.Node.table in
      for level = 0 to Routing_table.levels t - 1 do
        for digit = 0 to Routing_table.base t - 1 do
          if Routing_table.slot_len t ~level ~digit > 0 then
            let next_hop = Routing_table.slot_handle t ~level ~digit ~k:0 in
            keeps "optimize_through" n (fun () ->
                ignore (Maintenance.optimize_through net ~node:n ~next_hop))
        done
      done;
      let c = Pointer_store.cols n.Node.pointers in
      for i = 0 to Pointer_store.size n.Node.pointers - 1 do
        let salted = Network.salted net c.guid.(i) (Pointer_store.root_idx c i) in
        let me = n.Node.handle in
        let _, meets, _ =
          Route.fold_path ~exclude:me net ~from:n salted ~init:(-1)
            ~f:(fun meets hop ->
              `Continue (if hop.Node.handle = me then meets + 1 else meets))
        in
        Alcotest.(check int) "re-root walk meets the leaver once" 0 meets
      done)
    (Network.alive_nodes net);
  Alcotest.(check bool) (Printf.sprintf "walked %d records" !walked) true
    (!walked > 500)

(* ---- differential: column store vs the reference model ---- *)

let random_id rng =
  Node_id.random ~base:config.Config.base ~len:config.Config.id_digits rng

(* [groups] sets of guids agreeing in their low 12 hash bits, largest
   buckets first, plus [singles] unconstrained guids. *)
let guid_pool ~groups ~singles rng =
  let buckets = Hashtbl.create 4096 in
  for _ = 1 to 20_000 do
    let g = random_id rng in
    let b = Node_id.hash g land 0xfff in
    Hashtbl.replace buckets b
      (g :: Option.value ~default:[] (Hashtbl.find_opt buckets b))
  done;
  let largest =
    Hashtbl.fold (fun b gs acc -> (List.length gs, b, gs) :: acc) buckets []
    |> List.sort (fun (n1, b1, _) (n2, b2, _) ->
           match Int.compare n2 n1 with 0 -> Int.compare b1 b2 | c -> c)
    |> List.filteri (fun i _ -> i < groups)
    |> List.concat_map (fun (_, _, gs) -> gs)
  in
  Array.of_list (largest @ List.init singles (fun _ -> random_id rng))

let verdict_str v =
  if v = Pointer_store.fresh then "new"
  else if v < 0 then "refreshed -"
  else "refreshed " ^ string_of_int v

let strs rs = List.map (record_str string_of_int) rs
let sorted rs = List.sort String.compare (strs rs)

(* [guid]'s records in chain order (newest first). *)
let chain ps guid =
  let seen = ref [] in
  Pointer_store.iter_guid ps guid ~f:(fun c i -> seen := M.of_cols c i :: !seen);
  List.rev !seen

(* Both stores' observable state as parallel line lists, compared with
   one check so a long random run stays cheap. *)
let check_agree ~ctx ps m pool =
  let exp = ref [] and got = ref [] in
  let line e g = exp := e :: !exp; got := g :: !got in
  let lines what e g =
    line (what ^ " " ^ String.concat " " e) (what ^ " " ^ String.concat " " g)
  in
  line (string_of_int (M.size m)) (string_of_int (Pointer_store.size ps));
  lines "records" (sorted (M.records m)) (sorted (M.of_store ps));
  Array.iter
    (fun g ->
      let exp = strs (M.by_guid m g) in
      lines ("iter_guid " ^ id_str g) exp (strs (chain ps g));
      let held = match exp with [] -> false | _ :: _ -> true in
      line
        (Printf.sprintf "mem %b %b" held held)
        (Printf.sprintf "mem %b %b"
           (Pointer_store.mem_guid ps g)
           (Pointer_store.exists_guid_match ps g ~f:(fun _ _ -> true))))
    pool;
  Alcotest.(check (list string)) ctx (List.rev !exp) (List.rev !got)

let store_both ~ctx ps m ~guid ~server ~root_idx ~previous ~expires =
  Alcotest.(check string) (ctx ^ ": store verdict")
    (verdict_str (M.store m ~guid ~server ~root_idx ~previous ~expires))
    (verdict_str
       (Pointer_store.store ps ~guid ~server ~root_idx ~previous ~expires))

let remove_both ~ctx ps m ~guid ~server ~root_idx =
  Alcotest.(check bool) (ctx ^ ": remove")
    (M.remove m ~guid ~server ~root_idx)
    (Pointer_store.remove ps ~guid ~server ~root_idx)

(* Remove the record at [pos] (0 = head, newest) of [guid]'s chain. *)
let remove_at ~ctx ps m guid pos =
  match List.nth_opt (chain ps guid) pos with
  | Some r ->
      remove_both ~ctx ps m ~guid ~server:r.M.server ~root_idx:r.M.root_idx
  | None -> ()

(* Remove every record of [guid], head first. *)
let drain_both ~ctx ps m guid =
  List.iter
    (fun (r : M.record) ->
      remove_both ~ctx ps m ~guid ~server:r.M.server ~root_idx:r.M.root_idx)
    (chain ps guid)

let drive ~seed ~ops =
  let rng = Simnet.Rng.create seed in
  let pool = guid_pool ~groups:4 ~singles:24 rng in
  let servers = Array.init 5 Fun.id in
  let pick a = a.(Simnet.Rng.int rng (Array.length a)) in
  let ps = Pointer_store.create () and m = M.create () in
  let now = ref 0. in
  for step = 1 to ops do
    let ctx = Printf.sprintf "seed %d step %d" seed step in
    let guid = pick pool and server = pick servers in
    let root_idx = Simnet.Rng.int rng 2 in
    let roll = Simnet.Rng.int rng 100 in
    if roll < 55 then
      store_both ~ctx ps m ~guid ~server ~root_idx
        ~previous:(if Simnet.Rng.bool rng then pick servers else -1)
        ~expires:(!now +. Simnet.Rng.float rng 10.)
    else if roll < 70 then remove_both ~ctx ps m ~guid ~server ~root_idx
    else if roll < 85 then begin
      (* head, middle or tail of the chain *)
      let n = List.length (M.by_guid m guid) in
      if n > 0 then
        remove_at ~ctx ps m guid
          (match Simnet.Rng.int rng 3 with 0 -> 0 | 1 -> n / 2 | _ -> n - 1)
    end
    else if roll < 89 then drain_both ~ctx:(ctx ^ ": drain") ps m guid
    else if roll < 99 then begin
      now := !now +. Simnet.Rng.float rng 1.5;
      Alcotest.(check int) (ctx ^ ": expire") (M.expire m ~now:!now)
        (Pointer_store.expire ps ~now:!now)
    end
    else begin
      M.clear m;
      Pointer_store.clear ps
    end;
    check_agree ~ctx ps m pool
  done

let test_random_sequences () =
  List.iter (fun seed -> drive ~seed ~ops:2000) [ 1; 2; 3; 4; 5 ]

(* Scripted chain surgery on one colliding pair: removal at the tail, in
   the middle and at the head of a chain, and a swap-remove whose moved
   record (the vector's last) belongs to the victim's own guid. *)
let test_chain_positions () =
  let rng = Simnet.Rng.create 99 in
  let pool = guid_pool ~groups:1 ~singles:0 rng in
  Alcotest.(check bool) "colliding group" true (Array.length pool >= 2);
  let a = pool.(0) and b = pool.(1) in
  let servers = Array.init 5 Fun.id in
  let ps = Pointer_store.create () and m = M.create () in
  let put guid k =
    store_both ~ctx:"put" ps m ~guid ~server:servers.(k) ~root_idx:0
      ~previous:(-1) ~expires:1.
  in
  let check ctx = check_agree ~ctx ps m [| a; b |] in
  (* vector: a0 a1 a2 a3; a's chain a3 a2 a1 a0 *)
  List.iter (put a) [ 0; 1; 2; 3 ];
  (* tail a0 sits at index 0; the last record a3 (same guid, the head)
     moves into it *)
  remove_at ~ctx:"tail" ps m a 3;
  check "tail, moved record shares the guid";
  List.iter (put b) [ 0; 1 ];
  put a 4;
  remove_at ~ctx:"middle" ps m a 1;
  check "middle";
  remove_at ~ctx:"head" ps m a 0;
  check "head";
  (* refresh keeps the chain order and returns the old hop *)
  store_both ~ctx:"refresh" ps m ~guid:b ~server:servers.(0) ~root_idx:0
    ~previous:servers.(3) ~expires:5.;
  store_both ~ctx:"refresh again" ps m ~guid:b ~server:servers.(0) ~root_idx:0
    ~previous:(-1) ~expires:2.;
  check "refresh";
  Alcotest.(check int) "expire" (M.expire m ~now:3.) (Pointer_store.expire ps ~now:3.);
  check "expire";
  drain_both ~ctx:"drain" ps m a;
  check "drain"

(* Hundreds of distinct guids in one store: the index doubles from its
   initial size several times, then drains back to empty. *)
let test_index_growth () =
  let rng = Simnet.Rng.create 7 in
  let pool = guid_pool ~groups:8 ~singles:300 rng in
  let server = 0 in
  let ps = Pointer_store.create () and m = M.create () in
  Array.iteri
    (fun i guid ->
      store_both ~ctx:"grow" ps m ~guid ~server ~root_idx:(i mod 2)
        ~previous:(-1) ~expires:(float_of_int i);
      if i mod 17 = 0 then check_agree ~ctx:(Printf.sprintf "grow %d" i) ps m pool)
    pool;
  check_agree ~ctx:"grown" ps m pool;
  Alcotest.(check bool) "past four doublings" true
    (Array.fold_left
       (fun n g -> if Pointer_store.mem_guid ps g then n + 1 else n)
       0 pool
    > 8 * 16);
  Array.iteri
    (fun i guid ->
      drain_both ~ctx:"drain" ps m guid;
      if i mod 17 = 0 then check_agree ~ctx:(Printf.sprintf "drain %d" i) ps m pool)
    pool;
  check_agree ~ctx:"drained" ps m pool;
  Alcotest.(check int) "empty" 0 (Pointer_store.size ps)

(* ---- allocation ---- *)

(* A new record allocates nothing when the columns and index have room:
   a record is one cell of each column (the expiry lands unboxed in a
   float array, and the literal passed here is a static box).  A refresh
   allocates nothing either: its verdict is the old previous hop, an
   int. *)
let test_store_allocation () =
  let rng = Simnet.Rng.create 3 in
  let guid = random_id rng in
  let ps = Pointer_store.create () in
  ignore (Pointer_store.store ps ~guid ~server:0 ~root_idx:0 ~previous:(-1)
            ~expires:1.);
  let words f =
    let before = Gc.minor_words () in
    let v = f () in
    (Gc.minor_words () -. before, v)
  in
  let fresh_words, v =
    words (fun () ->
        Pointer_store.store ps ~guid ~server:1 ~root_idx:0 ~previous:0
          ~expires:2.)
  in
  Alcotest.(check int) "new record verdict" Pointer_store.fresh v;
  Alcotest.(check (float 0.)) "new record allocates nothing" 0. fresh_words;
  let refresh_words, v =
    words (fun () ->
        Pointer_store.store ps ~guid ~server:1 ~root_idx:0 ~previous:2
          ~expires:3.)
  in
  Alcotest.(check int) "refresh verdict is the old hop" 0 v;
  Alcotest.(check (float 0.)) "refresh allocates nothing" 0. refresh_words

(* [reserve] sizes a store as record-by-record doubling would: for
   stores that already hold [k] records, reserving [n] more ([guids] of
   them under new GUIDs, the rest sharing those GUIDs under another
   root index) and then storing them allocates nothing, replaces no
   column and no index, and leaves the capacities and [approx_bytes] of
   a twin store that grew by doubling.  The next record past a full
   reservation doubles the columns again. *)
let test_reserve () =
  let rng = Simnet.Rng.create 11 in
  let pool = Array.init 700 (fun _ -> random_id rng) in
  let put ps j ~root_idx =
    ignore
      (Pointer_store.store ps ~guid:pool.(j) ~server:j ~root_idx ~previous:(-1)
         ~expires:1.
        : int)
  in
  (* records [from .. from+n-1]: the first [guids] under fresh GUIDs at
     root 0, the rest repeating them at root 1 *)
  let put_range ps ~from ~n ~guids =
    for i = 0 to n - 1 do
      if i < guids then put ps (from + i) ~root_idx:0
      else put ps (from + i - guids) ~root_idx:1
    done
  in
  (* whether the store still has the columns and index it has now *)
  let kept ps =
    let c = Pointer_store.cols ps in
    let open Pointer_store in
    let guid = c.guid and packed = c.packed and expires = c.expires
    and next = c.next and heads = c.heads in
    fun () ->
      let c = Pointer_store.cols ps in
      c.guid == guid && c.packed == packed && c.expires == expires
      && c.next == next && c.heads == heads
  in
  List.iter
    (fun (k, n, guids) ->
      let ctx = Printf.sprintf "k=%d n=%d guids=%d" k n guids in
      let reserved = Pointer_store.create () and doubled = Pointer_store.create () in
      put_range reserved ~from:0 ~n:k ~guids:k;
      put_range doubled ~from:0 ~n:k ~guids:k;
      Pointer_store.reserve reserved ~guids n;
      let unchanged = kept reserved in
      let w0 = Gc.minor_words () in
      put_range reserved ~from:k ~n ~guids;
      let words = Gc.minor_words () -. w0 in
      put_range doubled ~from:k ~n ~guids;
      Alcotest.(check (float 0.)) (ctx ^ ": reserved records allocate nothing")
        0. words;
      Alcotest.(check bool) (ctx ^ ": columns and index kept") true
        (unchanged ());
      Alcotest.(check int) (ctx ^ ": records") (k + n) (Pointer_store.size reserved);
      let cap ps = Array.length (Pointer_store.cols ps).Pointer_store.guid
      and slots ps = Array.length (Pointer_store.cols ps).Pointer_store.heads in
      Alcotest.(check int) (ctx ^ ": column capacity") (cap doubled) (cap reserved);
      Alcotest.(check int) (ctx ^ ": index slots") (slots doubled) (slots reserved);
      Alcotest.(check int) (ctx ^ ": approx_bytes")
        (Pointer_store.approx_bytes doubled)
        (Pointer_store.approx_bytes reserved);
      let full = cap reserved = k + n in
      put reserved (k + guids) ~root_idx:0;
      if full then
        Alcotest.(check int) (ctx ^ ": one past the reservation doubles")
          (2 * (k + n)) (cap reserved))
    [
      (0, 1, 1); (0, 4, 4); (0, 5, 5); (0, 16, 16); (0, 100, 100);
      (0, 300, 300); (3, 13, 13); (5, 59, 59); (0, 64, 32); (7, 200, 120);
    ]

(* The byte model: a record cell is 4 words (GUID, packed server /
   previous / root index, unboxed expiry, chain link), in [approx_bytes]
   and in the heap.  Two stores holding the same records and the same
   index, reserved to capacities 16 and 32, differ by 16 cells: 64
   words, both in the model and in the words their columns reach. *)
let test_byte_model () =
  let rng = Simnet.Rng.create 5 in
  let pool = Array.init 4 (fun _ -> random_id rng) in
  let reserved cap =
    let ps = Pointer_store.create () in
    Pointer_store.reserve ps ~guids:4 cap;
    Array.iteri
      (fun j guid ->
        ignore
          (Pointer_store.store ps ~guid ~server:j ~root_idx:0 ~previous:(-1)
             ~expires:1.
            : int))
      pool;
    ps
  in
  let small = reserved 16 and large = reserved 32 in
  let cap ps = Array.length (Pointer_store.cols ps).Pointer_store.guid
  and slots ps = Array.length (Pointer_store.cols ps).Pointer_store.heads in
  Alcotest.(check (pair int int)) "capacities" (16, 32) (cap small, cap large);
  Alcotest.(check int) "same index" (slots small) (slots large);
  let cells = cap large - cap small and word = Sys.word_size / 8 in
  Alcotest.(check int) "approx_bytes: 4 words per record cell"
    (4 * cells * word)
    (Pointer_store.approx_bytes large - Pointer_store.approx_bytes small);
  let reach ps = Obj.reachable_words (Obj.repr (Pointer_store.cols ps)) in
  Alcotest.(check int) "heap: 4 words per record cell" (4 * cells)
    (reach large - reach small)

(* The packed column holds a handle below 2^26, a previous hop of -1 or
   a handle, and a root index up to [max_root_idx]; [store] refuses the
   rest instead of folding one field into another, and the extremes
   read back unchanged. *)
let test_packed_bounds () =
  let guid = random_id (Simnet.Rng.create 3) in
  let ps = Pointer_store.create () in
  let h = (1 lsl 26) - 1 and r = Pointer_store.max_root_idx in
  ignore
    (Pointer_store.store ps ~guid ~server:h ~root_idx:r ~previous:h ~expires:1.
      : int);
  let i = Pointer_store.find ps ~guid ~server:h ~root_idx:r in
  let c = Pointer_store.cols ps in
  Alcotest.(check (list int)) "extremes read back" [ h; r; h ]
    [ Pointer_store.server c i; Pointer_store.root_idx c i; Pointer_store.previous c i ];
  let refused ~server ~root_idx ~previous =
    match Pointer_store.store ps ~guid ~server ~root_idx ~previous ~expires:1. with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check (list bool)) "out-of-range fields refused"
    [ true; true; true; true ]
    [
      refused ~server:(h + 1) ~root_idx:0 ~previous:(-1);
      refused ~server:(-1) ~root_idx:0 ~previous:(-1);
      refused ~server:0 ~root_idx:(r + 1) ~previous:(-1);
      refused ~server:0 ~root_idx:0 ~previous:(-2);
    ];
  Alcotest.(check int) "one record" 1 (Pointer_store.size ps)

let () =
  Alcotest.run "pointer_store"
    [
      ( "pinned",
        [
          Alcotest.test_case "mesh records + message totals per phase" `Quick
            test_pinned;
        ] );
      ( "walks",
        [
          Alcotest.test_case "loops never write the walked store" `Quick
            test_walks_keep_walked_store;
        ] );
      ( "differential",
        [
          Alcotest.test_case "random sequences vs model" `Quick
            test_random_sequences;
          Alcotest.test_case "head, middle, tail and same-guid swap-remove"
            `Quick test_chain_positions;
          Alcotest.test_case "index growth and drain" `Quick test_index_growth;
        ] );
      ( "alloc",
        [
          Alcotest.test_case "store: no words on new or refresh" `Quick
            test_store_allocation;
          Alcotest.test_case "reserve: no words, doubling's capacities"
            `Quick test_reserve;
          Alcotest.test_case "4 words per record cell" `Quick test_byte_model;
          Alcotest.test_case "packed fields in range or refused" `Quick
            test_packed_bounds;
        ] );
    ]
