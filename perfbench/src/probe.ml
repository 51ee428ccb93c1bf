(* Per-layer probes for the traced run.

   The sync-tier layers (insert, delete, maintenance, locate, publish) are
   timed through spans the benchmark wraps around each public call; the
   join-leave workload records them during its measured phase and the
   serve workloads by a short membership probe on their own mesh after
   serving.  Microbenches time the hot primitives (route to root, cache
   probe, mailbox push/pop) on the workload's mesh.  [sync_metrics] turns
   either source into the same named per-layer metrics. *)

open Tapestry
module Rng = Simnet.Rng

(* Counts gathered next to the sync-tier spans. *)
type sync = {
  mutable joins : int;
  mutable join_msgs : int;
  mutable join_reached : int;
  mutable join_minor_words : float;
  mutable leaves : int;
  mutable notified : int;
  mutable holes_filled : int;
  mutable locates : int;
  mutable locate_hops : int;
}

let sync_create () =
  {
    joins = 0;
    join_msgs = 0;
    join_reached = 0;
    join_minor_words = 0.;
    leaves = 0;
    notified = 0;
    holes_filled = 0;
    locates = 0;
    locate_hops = 0;
  }

(* One join through the three public stages, each under its own span.
   Raises whatever [Insert] raises. *)
let join sp sc net ~gateway ~addr =
  let w0 = Gc.minor_words () in
  let report, cost =
    Network.measure net (fun () ->
        let st =
          Spans.with_ sp "insert.surrogate" (fun () ->
              Insert.stage_surrogate net ~gateway ~addr)
        in
        Spans.with_ sp "insert.multicast" (fun () -> Insert.stage_multicast net st);
        Spans.with_ sp "insert.acquire" (fun () -> Insert.stage_acquire net st))
  in
  sc.join_minor_words <- sc.join_minor_words +. (Gc.minor_words () -. w0);
  sc.joins <- sc.joins + 1;
  sc.join_msgs <- sc.join_msgs + cost.Simnet.Cost.messages;
  sc.join_reached <- sc.join_reached + report.Insert.multicast_reached;
  report

let leave sp sc net node =
  let s = Spans.with_ sp "delete.voluntary" (fun () -> Delete.voluntary net node) in
  sc.leaves <- sc.leaves + 1;
  sc.notified <- sc.notified + s.Delete.notified

let fail sp net node = Spans.with_ sp "delete.fail" (fun () -> Delete.fail net node)

let repair sp sc net =
  let filled = Spans.with_ sp "delete.repair" (fun () -> Delete.repair_all_holes net) in
  sc.holes_filled <- sc.holes_filled + filled

let republish sp net =
  ignore
    (Spans.with_ sp "maintenance.republish" (fun () -> Maintenance.republish_all net)
      : int)

let publish sp net ~server guid =
  ignore
    (Spans.with_ sp "publish" (fun () -> Publish.publish net ~server guid)
      : Publish.outcome)

(* A locate under its span; the hop count comes from the cost the call
   charged (the walk toward the root plus the leg to the server). *)
let locate sp sc net ~client guid =
  let r, cost =
    Spans.with_ sp "locate" (fun () ->
        Network.measure net (fun () -> Locate.locate net ~client guid))
  in
  sc.locates <- sc.locates + 1;
  sc.locate_hops <- sc.locate_hops + cost.Simnet.Cost.hops;
  (r, cost)

let random_alive rng net = net.Network.alive_arr.(Rng.int rng net.Network.alive_len)

(* Published GUIDs currently held by live servers, in arena order (at
   most [limit]). *)
let published_guids net ~limit =
  let acc = ref [] and k = ref 0 in
  Network.iter_alive net (fun n ->
      Node_id.Tbl.iter
        (fun g () ->
          if !k < limit then begin
            acc := g :: !acc;
            incr k
          end)
        n.Node.replicas);
  Array.of_list (List.rev !acc)

(* Membership probe for workloads whose own measured phase makes no
   sync-tier membership calls: [k] graceful leaves, [k] silent failures,
   one repair sweep, [2k] joins at the freed addresses, one republish,
   then [locates] locates and [publishes] publishes of known objects. *)
let membership_probe sp sc net ~seed ~k ~locates ~publishes =
  let rng = Rng.create seed in
  let freed = ref [] in
  for _ = 1 to k do
    let v = random_alive rng net in
    freed := v.Node.addr :: !freed;
    leave sp sc net v
  done;
  for _ = 1 to k do
    let v = random_alive rng net in
    freed := v.Node.addr :: !freed;
    fail sp net v
  done;
  repair sp sc net;
  List.iter
    (fun addr ->
      let gateway = random_alive rng net in
      ignore (join sp sc net ~gateway ~addr : Insert.report))
    (List.rev !freed);
  republish sp net;
  let guids = published_guids net ~limit:4096 in
  if Array.length guids > 0 then
    for _ = 1 to locates do
      let client = random_alive rng net in
      ignore (locate sp sc net ~client (Rng.pick rng guids) : Locate.result * Simnet.Cost.t)
    done;
  for _ = 1 to publishes do
    publish sp net ~server:(random_alive rng net) (Network.fresh_id net)
  done

let ms x = 1e3 *. x
let us x = 1e6 *. x

let mean_dur (a : Spans.agg) = Common.mean a.Spans.durations

let sync_metrics sp sc =
  let aggs = Spans.aggregate sp in
  let f = Spans.find aggs in
  let per_join x = if sc.joins = 0 then 0. else x /. float_of_int sc.joins in
  let m = Common.m in
  [
    m "insert.surrogate_ms" "ms" (ms (mean_dur (f "insert.surrogate")));
    m "insert.multicast_ms" "ms" (ms (mean_dur (f "insert.multicast")));
    m "insert.acquire_ms" "ms" (ms (mean_dur (f "insert.acquire")));
    m ~exact:true "insert.msgs_per_join" "msgs" (per_join (float_of_int sc.join_msgs));
    m ~exact:true "insert.multicast_reached" "nodes"
      (per_join (float_of_int sc.join_reached));
    m "insert.minor_kwords_per_join" "kwords" (per_join (sc.join_minor_words /. 1e3));
    m "delete.voluntary_ms" "ms" (ms (mean_dur (f "delete.voluntary")));
    m ~exact:true "delete.notified_mean" "nodes" (Common.ratio sc.notified sc.leaves);
    m "delete.repair_ms" "ms" (ms (mean_dur (f "delete.repair")));
    m ~exact:true "delete.holes_filled" "count" (float_of_int sc.holes_filled);
    m "maintenance.republish_ms" "ms" (ms (mean_dur (f "maintenance.republish")));
    m "locate.us_p50" "us" (us (Common.median (f "locate").Spans.durations));
    m ~exact:true "locate.hops_mean" "hops" (Common.ratio sc.locate_hops sc.locates);
    m "publish.us_p50" "us" (us (Common.median (f "publish").Spans.durations));
  ]

(* ---- microbenches on the workload's own mesh ---- *)

let time_per_op ~iters f =
  let t0 = Common.wall () in
  f ();
  (Common.wall () -. t0) /. float_of_int iters

let route_to_root_ns net ~seed ~iters =
  let rng = Rng.create seed in
  let from = Array.init 1024 (fun _ -> random_alive rng net) in
  let guids = Array.init 1024 (fun _ -> Network.fresh_id net) in
  1e9
  *. time_per_op ~iters (fun () ->
         for i = 0 to iters - 1 do
           ignore
             (Route.route_to_root net ~from:from.(i land 1023) guids.((i * 7) land 1023)
               : Route.info)
         done)

let mailbox_push_pop_ns net ~seed ~iters =
  let module Mb = Serve.Mailbox in
  let rng = Rng.create seed in
  let handles = net.Network.arena_len in
  let mb = Mb.create ~cap:64 ~handles in
  let hs = Array.init 4096 (fun _ -> Rng.int rng handles) in
  let sink = ref 0 in
  1e9
  *. time_per_op ~iters (fun () ->
         for i = 0 to iters - 1 do
           let h = hs.(i land 4095) in
           ignore (Mb.push mb h ~kind:1 ~req:i ~oi:i ~level:0 ~prev:(-1) ~src:h : bool);
           sink := !sink + mb.Mb.r_req.(Mb.msg_index mb h);
           Mb.advance mb h
         done)

(* Probes the object cache attached to the mesh (the serve workloads'
   warm cache); 0 when the workload runs without one. *)
let obj_cache_probe_ns net ~seed ~iters =
  match net.Network.obj_cache with
  | None -> 0.
  | Some cache ->
      let rng = Rng.create seed in
      let nodes = min net.Network.arena_len cache.Obj_cache.nodes in
      let keys = max 1 cache.Obj_cache.keys in
      let hs = Array.init 4096 (fun _ -> Rng.int rng nodes) in
      let ks = Array.init 4096 (fun _ -> Rng.int rng keys) in
      let sink = ref 0 in
      1e9
      *. time_per_op ~iters (fun () ->
             for i = 0 to iters - 1 do
               sink :=
                 !sink + Obj_cache.probe cache ~h:hs.(i land 4095) ~key:ks.((i * 5) land 4095)
             done)

let micro_metrics net ~seed =
  [
    Common.m "route.to_root_ns" "ns" (route_to_root_ns net ~seed ~iters:20_000);
    Common.m "mailbox.push_pop_ns" "ns" (mailbox_push_pop_ns net ~seed ~iters:2_000_000);
    Common.m "obj_cache.probe_ns" "ns" (obj_cache_probe_ns net ~seed ~iters:2_000_000);
  ]
