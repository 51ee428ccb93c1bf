type pointer_gap = {
  guid : Node_id.t;
  server : Node_id.t;
  missing_at : Node_id.t;
}

(* --- the core snapshot --- *)

(* The alive core IDs, ascending.  All IDs of a network have one length,
   where [Node_id.compare] is int order, which is digit-string order: the
   IDs that share a prefix and then a digit form one run of the array. *)
type core = Node_id.t array

let core net =
  Array.of_list (List.rev_map (fun (n : Node.t) -> n.Node.id) (Network.core_nodes net))

(* The first index in [lo, hi) whose ID is above [key] (with [past]) or
   at or above it (without); [hi] if none is. *)
let rec search ids key ~past lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) lsr 1 in
    let c = Node_id.compare ids.(mid) key in
    if c > 0 || (c = 0 && not past) then search ids key ~past lo mid
    else search ids key ~past (mid + 1) hi

let extension ids id ~level ~digit =
  let least, greatest = Node_id.extensions id ~level ~digit in
  let i = search ids greatest ~past:true 0 (Array.length ids) in
  if i > 0 && Node_id.compare ids.(i - 1) least >= 0 then Some ids.(i - 1)
  else None

(* Digit-by-digit refinement with wrap-around: [lo, hi) holds the IDs
   that share the digits chosen so far, and each level keeps the run of
   the wanted digit, else of the next digit present above it, else of the
   smallest.  By Theorem 2 this is the unique root surrogate routing must
   reach. *)
let surrogate_oracle net ids guid =
  if Array.length ids = 0 then invalid_arg "Verify.surrogate_oracle: empty network";
  let rec refine level lo hi =
    if level = Node_id.length guid then Network.find_exn net ids.(lo)
    else begin
      let want = Node_id.digit guid level in
      let least, _ = Node_id.extensions ids.(lo) ~level ~digit:want in
      let at = search ids least ~past:false lo hi in
      let lo = if at < hi then at else lo in
      let digit = Node_id.digit ids.(lo) level in
      let _, greatest = Node_id.extensions ids.(lo) ~level ~digit in
      refine (level + 1) lo (search ids greatest ~past:true lo hi)
    end
  in
  refine 0 0 (Array.length ids)

(* --- whole-mesh checks --- *)

let check_property1 net =
  let cfg = net.Network.config and ids = core net in
  let violations = ref [] in
  List.iter
    (fun (n : Node.t) ->
      for level = 0 to cfg.Config.id_digits - 1 do
        for digit = 0 to cfg.Config.base - 1 do
          if
            Routing_table.is_hole n.Node.table ~level ~digit
            && Option.is_some (extension ids n.Node.id ~level ~digit)
          then violations := (n, level, digit) :: !violations
        done
      done)
    (Network.core_nodes net);
  !violations

(* A slot is optimal when its primary is no farther than the closest core
   node that extends its (prefix, digit). *)
let check_property2 net ~total ~optimal =
  let cfg = net.Network.config and ids = core net in
  List.iter
    (fun (n : Node.t) ->
      for level = 0 to cfg.Config.id_digits - 1 do
        for digit = 0 to cfg.Config.base - 1 do
          match Routing_table.primary n.Node.table ~level ~digit with
          | Some prim when digit <> Node_id.digit n.Node.id level ->
              let least, greatest = Node_id.extensions n.Node.id ~level ~digit in
              let lo = search ids least ~past:false 0 (Array.length ids) in
              let hi = search ids greatest ~past:true lo (Array.length ids) in
              if lo < hi then begin
                let best = ref infinity in
                for i = lo to hi - 1 do
                  best := Float.min !best (Network.dist net n (Network.find_exn net ids.(i)))
                done;
                incr total;
                let prim_d =
                  match Network.find net prim.Routing_table.id with
                  | Some p -> Network.dist net n p
                  | None -> infinity
                in
                if prim_d <= !best then incr optimal
              end
          | Some _ | None -> ()
        done
      done)
    (Network.core_nodes net)

let true_nearest_neighbor net (node : Node.t) =
  let best = ref None and best_d = ref infinity in
  Network.iter_alive net (fun other ->
      if not (Node_id.equal other.Node.id node.Node.id) then begin
        let d = Network.dist net node other in
        if d < !best_d then begin
          best := Some other;
          best_d := d
        end
      end);
  !best

let check_property4 net =
  Network.without_charging net (fun () ->
      let cfg = net.Network.config in
      let gaps = ref [] in
      List.iter
        (fun (server : Node.t) ->
          Node_id.Tbl.iter
            (fun guid () ->
              for root_idx = 0 to cfg.Config.root_set_size - 1 do
                let salted = Network.salted net guid root_idx in
                let _, _, _ =
                  Route.fold_path net ~from:server salted ~init:()
                    ~f:(fun () hop ->
                      let ps = hop.Node.pointers in
                      let srv = server.Node.handle in
                      let i = Pointer_store.find ps ~guid ~server:srv ~root_idx in
                      if i < 0 || (Pointer_store.cols ps).expires.(i) < net.Network.clock
                      then
                        gaps :=
                          { guid; server = server.Node.id; missing_at = hop.Node.id }
                          :: !gaps;
                      `Continue ())
                in
                ()
              done)
            server.Node.replicas)
        (Network.alive_nodes net);
      !gaps)

let roots_agree net guid ~samples =
  Network.without_charging net (fun () ->
      let oracle = surrogate_oracle net (core net) guid in
      let ok = ref true in
      for _ = 1 to samples do
        let from = Network.random_alive net in
        let info = Route.route_to_root net ~from guid in
        if not (Node_id.equal info.Route.root.Node.id oracle.Node.id) then ok := false
      done;
      !ok)

let reachable_everywhere net guid =
  Network.without_charging net (fun () ->
      List.for_all
        (fun client -> Locate.exists net ~client guid)
        (Network.alive_nodes net))

let availability net ~guids ~samples =
  match guids with
  | [] -> 1.0
  | _ :: _ ->
    Network.without_charging net (fun () ->
        let hits = ref 0 in
        for _ = 1 to samples do
          let client = Network.random_alive net in
          let guid = Simnet.Rng.pick_list net.Network.rng guids in
          if Locate.exists net ~client guid then incr hits
        done;
        float_of_int !hits /. float_of_int samples)
