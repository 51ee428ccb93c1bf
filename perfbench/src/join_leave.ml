(* The join-leave workload: the sync tier as a closed loop on one domain.

   Set-up builds a streamed mesh and publishes every object once.  The
   measured phase is a fixed cycle of membership events — join, graceful
   leave, join, silent failure (2:1:1, so the mesh size holds) — each
   followed by locates from random live clients.  Every [maintain_every]
   events an anti-entropy sweep ([Delete.repair_all_holes]) and a
   soft-state republish run, and objects whose every replica has gone
   are published again on a random live server.

   The benchmark keeps its own replica ledger — the servers it published
   to, minus those that left or failed — and checks every locate answer
   against it. *)

open Tapestry
module Rng = Simnet.Rng
module Cost = Simnet.Cost

type spec = {
  n : int;
  spare : int;  (** extra metric points for joins beyond the initial mesh *)
  objects : int;
  events : int;  (** membership events per round *)
  locates_per_event : int;
  maintain_every : int;
}

let default ~events =
  { n = 4096; spare = 256; objects = 1_000; events; locates_per_event = 10; maintain_every = 2048 }

(* Locate latency is reported in virtual seconds under the serve tier's
   wire model (seconds per unit of metric distance). *)
let wire = Serve.Driver.default.Serve.Driver.latency

type ledger = {
  servers : Node.t list array;  (* object -> live servers holding it *)
  held : (int, int list) Hashtbl.t;  (* server handle -> objects *)
}

let ledger_add l o (s : Node.t) =
  if not (List.memq s l.servers.(o)) then begin
    l.servers.(o) <- s :: l.servers.(o);
    let cur = Option.value ~default:[] (Hashtbl.find_opt l.held s.Node.handle) in
    Hashtbl.replace l.held s.Node.handle (o :: cur)
  end

(* The node leaves or fails: its replicas leave with it. *)
let ledger_drop l (s : Node.t) =
  match Hashtbl.find_opt l.held s.Node.handle with
  | None -> ()
  | Some os ->
      List.iter (fun o -> l.servers.(o) <- List.filter (fun x -> x != s) l.servers.(o)) os;
      Hashtbl.remove l.held s.Node.handle

(* Counts of one round; all exact for a seed. *)
type counts = {
  mutable events_done : int;
  mutable joins : int;
  mutable leaves : int;
  mutable fails : int;
  mutable locates : int;
  mutable locate_none : int;  (* no server returned although a live replica exists *)
  mutable wrong : int;  (* server dead or not in the ledger *)
  mutable membership_raised : int;
  mutable replaced : int;  (* objects published again after losing every replica *)
  mutable msgs : int;  (* charged by membership calls *)
  mutable msgs_total : int;  (* charged by the whole measured phase *)
}

type round = {
  net : Network.t;
  c : counts;
  lat : float array;  (* virtual locate latency, successful locates *)
  stretch : float array;
  setup_s : float;
  setup_cpu_s : float;
  build_s : float;
  build_cpu_s : float;
  build_minor_words : float;
  stats : Static_build.stream_stats;
  placement_s : float;
  measured_s : float;
  measured_cpu_s : float;
  round_s : float;
  progress : float array;  (** the measured phase's start, a stamp per slice, its end *)
}

(* Membership events per progress slice of the measured phase. *)
let slice_events = 16

let fresh_distinct_guids net count =
  let seen = Node_id.Tbl.create count in
  Array.init count (fun _ ->
      let rec draw () =
        let g = Network.fresh_id net in
        if Node_id.Tbl.mem seen g then draw ()
        else begin
          Node_id.Tbl.replace seen g ();
          g
        end
      in
      draw ())

let round ?(sp = Spans.create ~enabled:false) ?(sc = Probe.sync_create ()) ?(verbose = true)
    spec ~seed =
  let t0 = Common.wall () and c0 = Common.cpu () in
  let rng = Rng.create seed in
  let metric =
    Spans.with_ sp "topology" (fun () ->
        Simnet.Topology.generate Simnet.Topology.Uniform_square
          ~n:(spec.n + spec.spare) ~rng)
  in
  let g0 = Gc.minor_words () in
  let tb0 = Common.wall () and cb0 = Common.cpu () in
  let net, stats =
    Spans.with_ sp "static_build" (fun () ->
        Static_build.build_streamed ~seed:(seed + 1) ~domains:1 Config.default metric
          ~n:spec.n)
  in
  let build_s = Common.wall () -. tb0 and build_cpu_s = Common.cpu () -. cb0 in
  let build_minor_words = Gc.minor_words () -. g0 in
  let wrng = Rng.create ((seed * 2) + 1) in
  let alive () = Probe.random_alive wrng net in
  let guids = fresh_distinct_guids net spec.objects in
  let l = { servers = Array.make spec.objects []; held = Hashtbl.create 1024 } in
  let tp0 = Common.wall () in
  let place o =
    let s = alive () in
    Probe.publish sp net ~server:s guids.(o);
    ledger_add l o s
  in
  for o = 0 to spec.objects - 1 do
    place o
  done;
  let tm0 = Common.wall () and cm0 = Common.cpu () in
  let c =
    {
      events_done = 0;
      joins = 0;
      leaves = 0;
      fails = 0;
      locates = 0;
      locate_none = 0;
      wrong = 0;
      membership_raised = 0;
      replaced = 0;
      msgs = 0;
      msgs_total = 0;
    }
  in
  let lat = Common.Buf.create () and stretch = Common.Buf.create () in
  let progress = Common.Buf.create () in
  Common.Buf.add progress tm0;
  let free = Queue.create () in
  for a = spec.n to spec.n + spec.spare - 1 do
    Queue.push a free
  done;
  let cost0 = Cost.snapshot net.Network.cost in
  (* every failure is counted under its cause; the first few of a round
     are also printed one by one *)
  let printed = ref 0 in
  let cause fmt =
    Printf.ksprintf
      (fun s ->
        incr printed;
        if verbose && !printed <= 10 then Common.say "  failure: %s" s)
      fmt
  in
  (* a membership call: its messages are what msgs_per_op counts *)
  let guarded what f =
    match Network.measure net f with
    | (), cost -> c.msgs <- c.msgs + cost.Cost.messages
    | exception e ->
        c.membership_raised <- c.membership_raised + 1;
        cause "%s raised %s" what (Printexc.to_string e)
  in
  let depart (v : Node.t) =
    ledger_drop l v;
    Queue.push v.Node.addr free
  in
  let pick_object () =
    let rec go k =
      if k = 0 then -1
      else
        let o = Rng.int wrng spec.objects in
        if l.servers.(o) <> [] then o else go (k - 1)
    in
    go 64
  in
  let locate_one () =
    let client = alive () in
    let o = pick_object () in
    if o >= 0 then begin
      let r, cost = Probe.locate sp sc net ~client guids.(o) in
      c.locates <- c.locates + 1;
      match r.Locate.server with
      | None ->
          c.locate_none <- c.locate_none + 1;
          cause "locate of object %d from %s returned no server; ledger holds %d live replica(s)"
            o (Node_id.to_string client.Node.id) (List.length l.servers.(o))
      | Some s when (not (Node.is_alive s)) || not (List.memq s l.servers.(o)) ->
          c.wrong <- c.wrong + 1;
          cause "locate of object %d returned %s server %s outside the ledger" o
            (if Node.is_alive s then "live" else "dead")
            (Node_id.to_string s.Node.id)
      | Some _ ->
          let d = cost.Cost.latency in
          Common.Buf.add lat (d *. wire);
          if not (List.memq client l.servers.(o)) then begin
            let best =
              List.fold_left
                (fun acc s -> Float.min acc (Network.dist net client s))
                infinity l.servers.(o)
            in
            if best > 0. then Common.Buf.add stretch (d /. best)
          end
    end
  in
  let maintain () =
    Probe.repair sp sc net;
    Probe.republish sp net;
    Array.iteri
      (fun o ss ->
        if ss = [] then begin
          place o;
          c.replaced <- c.replaced + 1
        end)
      l.servers
  in
  for e = 0 to spec.events - 1 do
    (match e land 3 with
    | 1 ->
        let v = alive () in
        depart v;
        c.leaves <- c.leaves + 1;
        guarded "Delete.voluntary" (fun () -> Probe.leave sp sc net v)
    | 3 ->
        let v = alive () in
        depart v;
        c.fails <- c.fails + 1;
        guarded "Delete.fail" (fun () -> Probe.fail sp net v)
    | _ ->
        let addr = Queue.pop free in
        let gateway = alive () in
        c.joins <- c.joins + 1;
        guarded "Insert" (fun () ->
            ignore (Probe.join sp sc net ~gateway ~addr : Insert.report)));
    for _ = 1 to spec.locates_per_event do
      locate_one ()
    done;
    c.events_done <- c.events_done + 1;
    if (e + 1) mod spec.maintain_every = 0 then maintain ();
    if (e + 1) mod slice_events = 0 && e + 1 < spec.events then
      Common.Buf.add progress (Common.wall ())
  done;
  let t_end = Common.wall () and c_end = Common.cpu () in
  Common.Buf.add progress t_end;
  c.msgs_total <- (Cost.diff net.Network.cost cost0).Cost.messages;
  {
    net;
    c;
    lat = Common.Buf.to_array lat;
    stretch = Common.Buf.to_array stretch;
    setup_s = tm0 -. t0;
    setup_cpu_s = cm0 -. c0;
    build_s;
    build_cpu_s;
    build_minor_words;
    stats;
    placement_s = tm0 -. tp0;
    measured_s = t_end -. tm0;
    measured_cpu_s = c_end -. cm0;
    round_s = t_end -. t0;
    progress = Common.Buf.to_array progress;
  }

(* The final repair, as the serve engine's quiescent point does it:
   drop every link to a dead node through [Delete.on_dead_repair], fill
   the holes, and drop backpointers whose source is dead.  Then audit. *)
let audit (r : round) =
  let net = r.net in
  match
    Network.iter_alive net (fun owner ->
        let dead = ref [] in
        Routing_table.iter_entries owner.Node.table (fun ~level:_ ~digit:_ e ->
            let id = e.Routing_table.id in
            match Network.find net id with
            | Some x when Node.is_alive x -> ()
            | _ -> if not (List.exists (Node_id.equal id) !dead) then dead := id :: !dead);
        List.iter (fun d -> Delete.on_dead_repair net ~owner ~dead:d) (List.rev !dead));
    ignore (Delete.repair_all_holes net : int);
    Network.iter_alive net (fun n ->
        List.iter
          (fun (level, src) ->
            match Network.find net src with
            | Some s when Node.is_alive s -> ()
            | _ -> Routing_table.remove_backpointer n.Node.table ~level src)
          (Routing_table.all_backpointers n.Node.table));
    Audit.run net
  with
  | report ->
      List.iter
        (fun v -> Common.say "audit: %s" (Format.asprintf "%a" Audit.pp_violation v))
        report.Audit.violations;
      List.length report.Audit.violations
  | exception e ->
      Common.say "audit: raised %s" (Printexc.to_string e);
      1

let signature r =
  let c = r.c in
  Printf.sprintf
    "ev=%d j=%d l=%d f=%d loc=%d none=%d wrong=%d raised=%d repl=%d msgs=%d/%d lat=%h/%h str=%h/%h"
    c.events_done c.joins c.leaves c.fails c.locates c.locate_none c.wrong
    c.membership_raised c.replaced c.msgs c.msgs_total
    (Array.fold_left ( +. ) 0. r.lat)
    (Common.quantile r.lat 0.99)
    (Array.fold_left ( +. ) 0. r.stretch)
    (Common.quantile r.stretch 0.99)

let failed_ops r = r.c.locate_none + r.c.membership_raised
let attempted_ops r = r.c.events_done + r.c.locates

let exact_metrics r =
  let c = r.c in
  let m = Common.m ~exact:true in
  [
    m "msgs_per_op" "msgs" (Common.ratio c.msgs c.events_done);
    m "failed_frac" "ratio" (Common.ratio (failed_ops r) (attempted_ops r));
    m "latency_p50_v" "s" (Common.quantile r.lat 0.5);
    m "latency_p99_v" "s" (Common.quantile r.lat 0.99);
    m "latency_p999_v" "s" (Common.quantile r.lat 0.999);
    m "latency_samples" "count" (float_of_int (Array.length r.lat));
    m "stretch_p50" "ratio" (Common.quantile r.stretch 0.5);
    m "stretch_p99" "ratio" (Common.quantile r.stretch 0.99);
    m "stretch_samples" "count" (float_of_int (Array.length r.stretch));
    m "wrong_answers" "count" (float_of_int c.wrong);
  ]

let print_counts r =
  let c = r.c in
  Common.say
    "  placement %.3f s; %d events: %d joins, %d leaves, %d failures, %d \
     locates (%d no-server, %d wrong), %d membership calls raised, %d objects \
     re-placed, %d msgs by membership calls, %d msgs in all"
    r.placement_s c.events_done c.joins c.leaves c.fails c.locates c.locate_none
    c.wrong c.membership_raised c.replaced c.msgs c.msgs_total

let summarize r =
  print_counts r;
  let wrong = r.c.wrong in
  {
    Runner.setup_s = r.setup_s;
    setup_cpu_s = r.setup_cpu_s;
    measured_s = r.measured_s;
    measured_cpu_s = r.measured_cpu_s;
    round_s = r.round_s;
    progress = r.progress;
    ops = r.c.events_done;
    attempted = attempted_ops r;
    failed = failed_ops r;
    signature = signature r;
    exact = exact_metrics r;
    checks =
      [
        ( "wrong-answers",
          wrong = 0,
          Printf.sprintf "%d locates answered outside the ledger" wrong );
      ];
  }

let layer_metrics r ~sp ~sc =
  let m = Common.m in
  let e = Common.m ~exact:true in
  let zero name unit_ = e name unit_ 0. in
  [
    m "static_build.wall_s" "s" r.build_s;
    m "static_build.cpu_s" "s" r.build_cpu_s;
    m "static_build.minor_mwords" "Mwords" (r.build_minor_words /. 1e6);
    e "static_build.msgs_per_join" "msgs" r.stats.Static_build.msgs.Static_build.mean;
    e "static_build.bytes_per_node" "B"
      (float_of_int r.stats.Static_build.footprint.Network.total_bytes
      /. float_of_int r.stats.Static_build.n);
    (* no serve engine, actor runtime or object cache in this workload *)
    zero "driver.placement_s" "s";
    zero "shard.barriers" "count";
    zero "shard.window_ms_p50" "ms";
    zero "shard.window_ms_p99" "ms";
    zero "shard.cpu_per_wall" "ratio";
    zero "mailbox.dropped_frac" "ratio";
    zero "actor.dead_letter_frac" "ratio";
    zero "actor.failed_unlabelled_frac" "ratio";
    zero "obj_cache.hit_rate" "ratio";
    zero "obj_cache.stale_rate" "ratio";
    zero "obj_cache.fills_per_req" "1/req";
    zero "obj_cache.hint_fills_per_req" "1/req";
    zero "obj_cache.hint_yield" "ratio";
  ]
  @ Probe.sync_metrics sp sc

(* The traced round's recorder also carries the sync-tier counters, so
   they are created with it. *)
let run ~rounds ~traced spec ~seed =
  let sc = ref (Probe.sync_create ()) and n = ref 0 in
  Runner.run ~rounds ~traced
    {
      Runner.round =
        (fun sp ->
          sc := Probe.sync_create ();
          incr n;
          (* rounds repeat round 0 exactly: print its failures only *)
          round ~sp ~sc:!sc ~verbose:(!n = 1) spec ~seed);
      summarize;
      audit;
      layers =
        (fun r sp -> layer_metrics r ~sp ~sc:!sc @ Probe.micro_metrics r.net ~seed);
    }
