let populate_links net =
  let nodes = Array.of_list (Network.alive_nodes net) in
  let n = Array.length nodes in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j then
        ignore
          (Network.offer_link_all_levels net ~owner:nodes.(i) ~candidate:nodes.(j))
    done
  done

let build ?seed cfg metric ~addrs =
  let net = Network.create ?seed cfg metric in
  List.iter
    (fun addr ->
      let id = Network.fresh_id net in
      let node = Node.create cfg ~id ~addr in
      node.Node.status <- Node.Active;
      Network.register net node)
    addrs;
  Network.without_charging net (fun () -> populate_links net);
  net

(* --- streamed construction (the scale tier's builder) --- *)

type dist_summary = { mean : float; sd : float; max : float }

type stream_stats = {
  n : int;
  msgs : dist_summary;
  msgs_late : dist_summary;
  hops : dist_summary;
  latency : dist_summary;
  multicast_reached : dist_summary;
  pointers_transferred : int;
  entries : dist_summary;
  backpointers : dist_summary;
  footprint : Network.footprint;
}

(* Streaming moment accumulator: sum/sumsq/max, folded insert by insert so
   nothing per-node outlives its report. *)
type acc = {
  mutable cnt : int;
  mutable sum : float;
  mutable sumsq : float;
  mutable mx : float;
}

let acc_make () = { cnt = 0; sum = 0.; sumsq = 0.; mx = 0. }

let acc_add a v =
  a.cnt <- a.cnt + 1;
  a.sum <- a.sum +. v;
  a.sumsq <- a.sumsq +. (v *. v);
  if v > a.mx then a.mx <- v

let acc_summary a =
  if a.cnt = 0 then { mean = 0.; sd = 0.; max = 0. }
  else begin
    let n = float_of_int a.cnt in
    let mean = a.sum /. n in
    let var = max 0. ((a.sumsq /. n) -. (mean *. mean)) in
    { mean; sd = sqrt var; max = a.mx }
  end

(* Per-shard integer partials of the post-build table sweep.  Integer sums
   are associative, so the combined summary cannot depend on how shards are
   distributed over domains. *)
type shard_partial = {
  s_cnt : int;
  e_sum : int;
  e_sq : int;
  e_max : int;
  b_sum : int;
  b_sq : int;
  b_max : int;
}

let sweep_shards = 64

let sweep_shard net ~lo ~hi =
  let cnt = ref 0 in
  let e_sum = ref 0 and e_sq = ref 0 and e_max = ref 0 in
  let b_sum = ref 0 and b_sq = ref 0 and b_max = ref 0 in
  for h = lo to hi - 1 do
    let node = Network.node_of_handle net h in
    if Node.is_alive node then begin
      incr cnt;
      let e = Routing_table.entry_count node.Node.table in
      let b = Routing_table.backpointer_count node.Node.table in
      e_sum := !e_sum + e;
      e_sq := !e_sq + (e * e);
      if e > !e_max then e_max := e;
      b_sum := !b_sum + b;
      b_sq := !b_sq + (b * b);
      if b > !b_max then b_max := b
    end
  done;
  {
    s_cnt = !cnt;
    e_sum = !e_sum;
    e_sq = !e_sq;
    e_max = !e_max;
    b_sum = !b_sum;
    b_sq = !b_sq;
    b_max = !b_max;
  }

let int_summary ~cnt ~sum ~sq ~mx =
  if cnt = 0 then { mean = 0.; sd = 0.; max = 0. }
  else begin
    let n = float_of_int cnt in
    let mean = float_of_int sum /. n in
    let var = max 0. ((float_of_int sq /. n) -. (mean *. mean)) in
    { mean; sd = sqrt var; max = float_of_int mx }
  end

(* The read-only per-node sweep, sharded over a fixed grid of [sweep_shards]
   contiguous handle ranges.  [domains] only chooses how many domains chew
   on those shards: shard boundaries, per-shard results and the (integer)
   combine are all independent of it, so the output is bit-identical for
   any domain count.  Tables are not mutated during the sweep. *)
let sweep net ~domains =
  let len = net.Network.arena_len in
  let shards = min sweep_shards (max 1 len) in
  let partials =
    Simnet.Parallel.map ~domains shards ~f:(fun s ->
        let lo = len * s / shards and hi = len * (s + 1) / shards in
        sweep_shard net ~lo ~hi)
  in
  let cnt = ref 0 in
  let e_sum = ref 0 and e_sq = ref 0 and e_max = ref 0 in
  let b_sum = ref 0 and b_sq = ref 0 and b_max = ref 0 in
  Array.iter
    (fun p ->
      cnt := !cnt + p.s_cnt;
      e_sum := !e_sum + p.e_sum;
      e_sq := !e_sq + p.e_sq;
      if p.e_max > !e_max then e_max := p.e_max;
      b_sum := !b_sum + p.b_sum;
      b_sq := !b_sq + p.b_sq;
      if p.b_max > !b_max then b_max := p.b_max)
    partials;
  ( int_summary ~cnt:!cnt ~sum:!e_sum ~sq:!e_sq ~mx:!e_max,
    int_summary ~cnt:!cnt ~sum:!b_sum ~sq:!b_sq ~mx:!b_max )

let build_streamed ?seed ?(domains = 1) ?(batch = 4096) ?(addr_of = Fun.id)
    ?progress cfg metric ~n =
  if n < 1 then invalid_arg "Static_build.build_streamed: n must be >= 1";
  (* Declare the population so every directory structure is born at its
     final size (no rehash/doubling storms mid-build). *)
  let cfg =
    if cfg.Config.expected_nodes > 0 then cfg
    else { cfg with Config.expected_nodes = n }
  in
  let net = Network.create ?seed cfg metric in
  (* Bootstrap node: sole participant, trivially consistent — the same
     first step as [Insert.build_incremental]. *)
  let id = Network.fresh_id net in
  let bootstrap = Node.create cfg ~id ~addr:(addr_of 0) in
  bootstrap.Node.status <- Node.Active;
  Network.register net bootstrap;
  let msgs = acc_make () and msgs_late = acc_make () in
  let hops = acc_make () and latency = acc_make () in
  let mcast = acc_make () in
  let transferred = ref 0 in
  let late_from = n / 2 in
  (* The insertion sequence is byte-for-byte the one build_incremental
     runs — same RNG draw order (fresh id inside [Insert.insert], then the
     random gateway), same staged pipeline on the shared Scratch buffers —
     so the resulting mesh is bit-identical to the incremental build.  The
     difference is purely what survives each iteration: report fields are
     folded into the streaming accumulators and the report dies young,
     instead of growing an n-element list. *)
  for i = 1 to n - 1 do
    let gateway = Network.random_alive net in
    let r = Insert.insert net ~gateway ~addr:(addr_of i) in
    let m = float_of_int r.Insert.cost.Simnet.Cost.messages in
    acc_add msgs m;
    if i >= late_from then acc_add msgs_late m;
    acc_add hops (float_of_int r.Insert.cost.Simnet.Cost.hops);
    acc_add latency r.Insert.cost.Simnet.Cost.latency;
    acc_add mcast (float_of_int r.Insert.multicast_reached);
    transferred := !transferred + r.Insert.pointers_transferred;
    match progress with
    | Some f when (i + 1) mod batch = 0 || i = n - 1 ->
        f ~inserted:(i + 1) ~total:n
    | _ -> ()
  done;
  let entries, backpointers = sweep net ~domains in
  let stats =
    {
      n;
      msgs = acc_summary msgs;
      msgs_late = acc_summary msgs_late;
      hops = acc_summary hops;
      latency = acc_summary latency;
      multicast_reached = acc_summary mcast;
      pointers_transferred = !transferred;
      entries;
      backpointers;
      footprint = Network.memory_footprint net;
    }
  in
  (net, stats)

let table_quality net ~oracle =
  let total = ref 0 and matched = ref 0 in
  List.iter
    (fun (onode : Node.t) ->
      match Network.find net onode.Node.id with
      | None -> ()
      | Some node ->
          let levels = Routing_table.levels onode.Node.table in
          let base = Routing_table.base onode.Node.table in
          for level = 0 to levels - 1 do
            for digit = 0 to base - 1 do
              if digit <> Node_id.digit onode.Node.id level then begin
                match Routing_table.primary onode.Node.table ~level ~digit with
                | None -> ()
                | Some oracle_prim ->
                    incr total;
                    (match Routing_table.primary node.Node.table ~level ~digit with
                    | None -> ()
                    | Some prim ->
                        if prim.Routing_table.dist <= oracle_prim.Routing_table.dist +. 1e-9
                        then incr matched)
              end
            done
          done)
    (Network.alive_nodes oracle);
  if !total = 0 then 1.0 else float_of_int !matched /. float_of_int !total
