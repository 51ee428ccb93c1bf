(* The serving actors against the sync tier, on one mesh geometry at a
   time.  Both engines route with [Route.step]; these tests check that
   what each engine does around the step agrees:

   - locate: a served LOCATE's hop chain is the sync walk from the same
     client toward the same salted root, up to the first usable
     pointer, and its FETCH answers with [Locate.locate]'s server;
   - dead entries: after silent failures, a walk whose hook only notes
     dead entries (the actor's) takes the hops the sync walk takes
     while it purges them;
   - writes: served PUBLISH and UNPUBLISH chains leave every pointer
     store as [Publish.publish] and [Publish.unpublish] leave it.

   Every geometry is n=256: uniform square, grid and transit-stub. *)

open Tapestry
module Rng = Simnet.Rng
module Actor = Serve.Actor
module Shard = Serve.Shard

type geometry = Uniform | Grid | Transit_stub

let geometry_name = function
  | Uniform -> "uniform"
  | Grid -> "grid"
  | Transit_stub -> "transit-stub"

(* Two calls with the same arguments build twin meshes: same IDs, same
   handles, same tables. *)
let build ?(config = Config.default) geometry seed =
  let rng = Rng.create seed in
  match geometry with
  | Uniform | Grid ->
      let kind =
        match geometry with
        | Grid -> Simnet.Topology.Grid
        | _ -> Simnet.Topology.Uniform_square
      in
      let metric = Simnet.Topology.generate kind ~n:256 ~rng in
      fst (Static_build.build_streamed ~seed:(seed + 1) config metric ~n:256)
  | Transit_stub ->
      (* 2 transit domains x 4 nodes, 4 stubs of 8 each: 256 hosts *)
      let params =
        { Simnet.Transit_stub.default_params with stubs_per_transit = 4 }
      in
      let ts = Simnet.Transit_stub.generate params ~rng in
      Static_build.build ~seed:(seed + 1) config
        (Simnet.Transit_stub.metric ts)
        ~addrs:(Simnet.Transit_stub.hosts ts)

let alive_handle net rng =
  net.Network.alive_arr.(Rng.int rng net.Network.alive_len).Node.handle

(* [cache] defaults to a zero-way cache, every probe a miss. *)
let engine ?cache ~net ~guids () =
  let cache =
    Option.value cache
      ~default:(Obj_cache.create ~ways:0 ~nodes:net.Network.arena_len)
  in
  Shard.create ~net ~guids ~roots:net.Network.config.Config.root_set_size
    ~ttl:1e6 ~latency:1e-5 ~service:1e-4 ~mailbox_cap:64 ~seed:1
    ~window:0.02 ~cache ~coop:false

(* With [opens] the message opens a request slot on [h]'s shard and
   carries its tag, which [send] returns; without, it is a
   fire-and-forget chain message ([-1]). *)
let send t ~time ~h ~kind ~opens ~oi ~src =
  let ctx = t.Shard.ctxs.(Shard.shard_of h) in
  let req = if opens then Actor.open_req ctx else -1 in
  Actor.send ctx ~time ~h ~kind ~req ~oi ~level:0 ~prev:(-1) ~src;
  req

let run t ~domains =
  Shard.run t ~domains ~now:(fun () -> 0.) ~on_barrier:(fun _ _ -> ())

(* Every request the test opened settled, and all of them completed. *)
let check_all_completed what t requests =
  let sum f = Array.fold_left (fun acc ctx -> acc + f ctx) 0 t.Shard.ctxs in
  Alcotest.(check (pair int int))
    (what ^ ": every request completes")
    (requests, 0)
    ( sum (fun ctx -> ctx.Actor.completed),
      sum (fun ctx -> ctx.Actor.failed) )

(* Object [o]'s guid is [base.(o)]; message [oi = o * roots + r] routes
   toward its salted root [r], as in [Driver]. *)
let object_guids net objects =
  let roots = net.Network.config.Config.root_set_size in
  let base = Array.init objects (fun _ -> Network.fresh_id net) in
  ( base,
    Array.init (objects * roots) (fun oi ->
        Network.salted net base.(oi / roots) (oi mod roots)) )

let ints = Alcotest.(list int)

(* ---- locate ---- *)

(* The hop chain recorded in the slot of tag [tag].  A reclaimed slot
   keeps its path until it is opened again, and these tests open every
   request before the run, so no slot is reused. *)
let recorded_chain t tag =
  let sh = t.Shard.sh in
  List.init (Actor.path_len sh tag) (Actor.path_hop sh tag)

(* The sync walk a served LOCATE should take: from the client toward
   the salted root, stopping at the first node with a usable pointer. *)
let sync_chain net ~client salted guid =
  let usable = Locate.usable net guid in
  let _, rev, _ =
    Route.fold_path net ~from:client salted ~init:[] ~f:(fun acc node ->
        let acc = node.Node.handle :: acc in
        if Pointer_store.exists_guid_match node.Node.pointers guid ~f:usable
        then `Stop acc
        else `Continue acc)
  in
  List.rev rev

let test_locate geometry () =
  let objects = 32 in
  let net = build geometry 7 in
  let roots = net.Network.config.Config.root_set_size in
  let rng = Rng.create 11 in
  let base, guids = object_guids net objects in
  let servers = Array.map (fun _ -> alive_handle net rng) base in
  Array.iteri
    (fun o g ->
      ignore
        (Publish.publish net ~server:(Network.node_of_handle net servers.(o)) g
          : Publish.outcome))
    base;
  let rec client o =
    let h = alive_handle net rng in
    if h = servers.(o) then client o else h
  in
  let clients = Array.init objects client in
  let root_of = Array.init objects (fun _ -> Rng.int rng roots) in
  (* the sync tier's answers, and an absolute check on the step: the
     unstopped walk ends at the globally computed surrogate root *)
  let core = Verify.core net in
  let expected =
    Array.init objects (fun o ->
        let client = Network.node_of_handle net clients.(o) in
        let salted = guids.((o * roots) + root_of.(o)) in
        let info = Route.route_to_root net ~from:client salted in
        Alcotest.(check int)
          (Printf.sprintf "object %d: walk ends at the oracle root" o)
          (Verify.surrogate_oracle net core salted).Node.handle
          info.Route.root.Node.handle;
        let res = Locate.locate ~root_idx:root_of.(o) net ~client base.(o) in
        match res.Locate.server with
        | Some s -> (sync_chain net ~client salted base.(o), s.Node.handle)
        | None -> Alcotest.failf "object %d: sync locate found no server" o)
  in
  List.iter
    (fun domains ->
      let c = Obj_cache.create ~ways:64 ~nodes:net.Network.arena_len in
      Array.iter (fun g -> ignore (Obj_cache.intern c g : int)) base;
      let t = engine ~cache:c ~net ~guids () in
      let tags =
        Array.mapi
          (fun o client ->
            send t ~time:0. ~h:client ~kind:Actor.op_locate ~opens:true
              ~oi:((o * roots) + root_of.(o))
              ~src:client)
          clients
      in
      run t ~domains;
      check_all_completed (Printf.sprintf "domains %d" domains) t objects;
      (* every probe missed: each object is located once, and its fills
         land only after its own FETCH *)
      Array.iter
        (fun (ctx : Actor.ctx) ->
          Alcotest.(check int) "no cache hits" 0
            ctx.Actor.tally.Simnet.Stats.Tally.hits)
        t.Shard.ctxs;
      let fills = Array.make objects [] in
      Obj_cache.iter c ~f:(fun ~h ~key ~server ~epoch:_ ->
          fills.(key) <- (h, server) :: fills.(key));
      Array.iteri
        (fun o (chain, server) ->
          let what = Printf.sprintf "domains %d, object %d" domains o in
          Alcotest.check ints (what ^ ": hop chain = sync walk") chain
            (recorded_chain t tags.(o));
          let holders = List.sort Int.compare (List.map fst fills.(o)) in
          Alcotest.check ints
            (what ^ ": fills on the chain's non-server nodes")
            (List.sort Int.compare (List.filter (fun h -> h <> server) chain))
            holders;
          List.iter
            (fun (_, s) ->
              Alcotest.(check int) (what ^ ": answer = Locate.locate") server s)
            fills.(o))
        expected)
    [ 1; 2 ]

(* ---- dead entries: skipping one picks the hop purging it picks ---- *)

let test_dead_entries geometry () =
  let a = build geometry 13 and b = build geometry 13 in
  let rng = Rng.create 17 in
  let n = a.Network.alive_len in
  for _ = 1 to n / 10 do
    let h = alive_handle a rng in
    Delete.fail a (Network.node_of_handle a h);
    Delete.fail b (Network.node_of_handle b h)
  done;
  (* the actor's own hook, from an engine that never runs *)
  let ctx = (engine ~net:a ~guids:[||] ()).Shard.ctxs.(0) in
  let seen = ref [] in
  let dead owner h =
    seen := (owner.Node.handle, h) :: !seen;
    ctx.Actor.dead owner h
  in
  let rec step_walk (node : Node.t) guid level acc =
    let r = Route.step a ~skip:Route.no_skip ~dead node guid ~level in
    if r < 0 then List.rev acc
    else begin
      let h = Route.step_handle r in
      step_walk (Network.node_of_handle a h) guid (Route.step_level r) (h :: acc)
    end
  in
  let purged = ref [] in
  let on_dead net ~(owner : Node.t) ~dead =
    let d = (Network.find_exn net dead).Node.handle in
    purged := (owner.Node.handle, d) :: !purged;
    ignore (Network.drop_link net ~owner ~target:dead)
  in
  let met = ref 0 in
  for w = 1 to 96 do
    let client = alive_handle a rng in
    let guid = Network.fresh_id a in
    seen := [];
    purged := [];
    let skipped = step_walk (Network.node_of_handle a client) guid 0 [ client ] in
    let _, rev, _ =
      Route.fold_path ~on_dead b ~from:(Network.node_of_handle b client) guid
        ~init:[] ~f:(fun acc node -> `Continue (node.Node.handle :: acc))
    in
    Alcotest.check ints (Printf.sprintf "walk %d: hop by hop" w) (List.rev rev)
      skipped;
    List.iter
      (fun (o, d) ->
        if not (List.exists (fun (o', d') -> o = o' && d = d') !seen) then
          Alcotest.failf "walk %d: purged entry (%d, %d) was not skipped" w o d)
      !purged;
    met := !met + List.length !seen
  done;
  Alcotest.(check bool) "walks met dead entries" true (!met > 0);
  Alcotest.(check bool) "the actor's hook queued their owners" true
    (Serve.Mailbox.Rows.length ctx.Actor.repairs > 0)

(* ---- writes ---- *)

(* Each pointer store's columns, in index order; [expires] is left out
   because the engines stamp different clocks. *)
let stores net =
  List.init net.Network.arena_len (fun h ->
      let c = Pointer_store.cols (Network.node_of_handle net h).Node.pointers in
      List.init c.Pointer_store.len (fun i ->
          ( Node_id.to_string c.Pointer_store.guid.(i),
            Pointer_store.server c i,
            Pointer_store.root_idx c i,
            Pointer_store.previous c i )))

let replicas net base =
  List.init net.Network.arena_len (fun h ->
      let node = Network.node_of_handle net h in
      List.filter (Node.stores_replica node) (Array.to_list base)
      |> List.map Node_id.to_string)

let record = Alcotest.(list (list (pair (pair string int) (pair int int))))
let flatten = List.map (List.map (fun (g, s, r, p) -> ((g, s), (r, p))))

(* The sync tier's state after a phase, and a served mesh checked
   against it. *)
let snapshot net base = (flatten (stores net), replicas net base)

let check_state what (columns, held) net base =
  Alcotest.check record (what ^ ": pointer columns") columns
    (flatten (stores net));
  Alcotest.(check (list (list string)))
    (what ^ ": replica sets") held (replicas net base)

(* One chain per (object, root), as [Driver.send_chains] sends them,
   but each in its own time slot: a chain finishes in well under the
   slot, so chains reach every node in the sync tier's order (object by
   object, root by root) and the store's index order is comparable. *)
let serve_chains net ~guids ~objects ~servers ~kind ~domains =
  let roots = net.Network.config.Config.root_set_size in
  let t = engine ~net ~guids () in
  List.iteri
    (fun k o ->
      for r = 0 to roots - 1 do
        let srv = servers.(o) in
        ignore
          (send t
             ~time:(0.1 *. float_of_int ((k * roots) + r))
             ~h:srv ~kind ~opens:(r = 0)
             ~oi:((o * roots) + r)
             ~src:srv
            : int)
      done)
    objects;
  run t ~domains;
  check_all_completed "chains" t (List.length objects)

let test_writes geometry () =
  let config = { Config.default with Config.root_set_size = 2 } in
  let count = 24 in
  let sync = build ~config geometry 19 in
  let base, guids = object_guids sync count in
  let rng = Rng.create 23 in
  let servers = Array.map (fun _ -> alive_handle sync rng) base in
  let all = List.init count Fun.id in
  let retracted = List.filter (fun o -> o mod 2 = 0) all in
  let core = Verify.core sync in
  Array.iteri
    (fun o g ->
      let outcome =
        Publish.publish sync ~server:(Network.node_of_handle sync servers.(o)) g
      in
      List.iteri
        (fun r (root : Node.t) ->
          let salted = Network.salted sync g r in
          Alcotest.(check int) "publish ends at the oracle root"
            (Verify.surrogate_oracle sync core salted).Node.handle root.Node.handle)
        outcome.Publish.roots)
    base;
  let published = snapshot sync base in
  List.iter
    (fun o ->
      Publish.unpublish sync ~server:(Network.node_of_handle sync servers.(o))
        base.(o))
    retracted;
  let unpublished = snapshot sync base in
  List.iter
    (fun domains ->
      let served = build ~config geometry 19 in
      serve_chains served ~guids ~objects:all ~servers ~kind:Actor.op_publish
        ~domains;
      check_state (Printf.sprintf "domains %d, publish" domains) published
        served base;
      serve_chains served ~guids ~objects:retracted ~servers
        ~kind:Actor.op_unpublish ~domains;
      check_state (Printf.sprintf "domains %d, unpublish" domains) unpublished
        served base)
    [ 1; 2 ]

let () =
  let cases f =
    List.map
      (fun g -> Alcotest.test_case (geometry_name g) `Quick (f g))
      [ Uniform; Grid; Transit_stub ]
  in
  Alcotest.run "differential"
    [
      ("locate", cases test_locate);
      ("dead entries", cases test_dead_entries);
      ("writes", cases test_writes);
    ]
