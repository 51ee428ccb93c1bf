(* Differential tests for the packed routing table.

   The packed flat-array implementation (Routing_table.t) and the original
   list-based one (Oracle.Routing_table.t) are driven through identical
   randomized churn — consider / remove / update_distances, slot
   injection and the owner's handle stamp — and must agree on every
   verdict and, through every accessor, on every slot's exact contents
   and order, at levels with and without a packed row.  A second
   suite pins the E1/E2 experiment tables at seed 42 to a committed golden
   fixture, so any representation change that shifts routing order, cost
   accounting or tie-breaking is caught as a byte diff. *)

open Tapestry

let config = Config.default

(* --- packed vs list-oracle differential churn --- *)

let random_id rng =
  Node_id.random ~base:config.Config.base ~len:config.Config.id_digits rng

let entry_str (e : Routing_table.entry) =
  Printf.sprintf "%s@%h" (Node_id.to_string e.Routing_table.id)
    e.Routing_table.dist

let slot_str entries = String.concat "," (List.map entry_str entries)

(* Compare every slot of both tables: same ids, same order, same recorded
   distances, through the list views and through the index accessors
   ([slot_len], [slot_id], [slot_handle], [slot_dist]), plus each level's
   [filled_mask], the [holes] list, the [iter_handles] order and
   [entry_count].  [handle_of] maps an ID to the handle the packed table
   must report for it (the owner's current handle for the owner). *)
let check_tables_agree ~round ~handle_of packed oracle =
  let levels = Routing_table.levels packed in
  let base = config.Config.base in
  let owner = Routing_table.owner packed in
  let holes = ref [] and handles = ref [] and entries = ref 0 in
  for level = 0 to levels - 1 do
    let mask = ref 0 in
    for digit = 0 to base - 1 do
      let where = Printf.sprintf "round %d (%d,%d)" round level digit in
      let p = Routing_table.slot packed ~level ~digit in
      let o = Oracle.Routing_table.slot oracle ~level ~digit in
      Alcotest.(check string) (where ^ " slot") (slot_str o) (slot_str p);
      let prim_str = function None -> "-" | Some e -> entry_str e in
      Alcotest.(check string)
        (where ^ " primary")
        (prim_str (Oracle.Routing_table.primary oracle ~level ~digit))
        (prim_str (Routing_table.primary packed ~level ~digit));
      Alcotest.(check int) (where ^ " slot_len") (List.length o)
        (Routing_table.slot_len packed ~level ~digit);
      List.iteri
        (fun k (e : Routing_table.entry) ->
          let at = Printf.sprintf "%s k=%d" where k in
          Alcotest.(check string) (at ^ " slot_id")
            (Node_id.to_string e.Routing_table.id)
            (Node_id.to_string (Routing_table.slot_id packed ~level ~digit ~k));
          Alcotest.(check int) (at ^ " slot_handle") (handle_of e.Routing_table.id)
            (Routing_table.slot_handle packed ~level ~digit ~k);
          Alcotest.(check (float 0.)) (at ^ " slot_dist") e.Routing_table.dist
            (Routing_table.slot_dist packed ~level ~digit ~k);
          handles := handle_of e.Routing_table.id :: !handles;
          if not (Node_id.equal e.Routing_table.id owner) then incr entries)
        o;
      match o with
      | [] -> holes := (level, digit) :: !holes
      | _ :: _ -> mask := !mask lor (1 lsl digit)
    done;
    Alcotest.(check int)
      (Printf.sprintf "round %d level %d filled_mask" round level)
      !mask (Routing_table.filled_mask packed ~level)
  done;
  Alcotest.(check (list (pair int int)))
    (Printf.sprintf "round %d holes" round)
    (List.rev !holes) (Routing_table.holes packed);
  let walked = ref [] in
  Routing_table.iter_handles packed (fun ~level:_ h -> walked := h :: !walked);
  Alcotest.(check (list int))
    (Printf.sprintf "round %d iter_handles order" round)
    (List.rev !handles) (List.rev !walked);
  Alcotest.(check int)
    (Printf.sprintf "round %d entry_count" round)
    !entries (Routing_table.entry_count packed)

let verdict_str = function
  | `Added None -> "added"
  | `Added (Some id) -> "added evicting " ^ Node_id.to_string id
  | `Rejected -> "rejected"
  | `Known -> "known"

(* The packed verdict, with an evicted handle mapped back to its ID. *)
let packed_verdict_str ~id_of_handle v =
  if v = Routing_table.known then "known"
  else if v = Routing_table.rejected then "rejected"
  else if v < 0 then "added"
  else "added evicting " ^ Node_id.to_string (id_of_handle v)

let churn_rounds = 400

(* Every [inject_every] rounds one slot is overwritten in both tables,
   from a separate RNG so the consider/remove/re-measure sequence is the
   same with or without injection; [stamp_round] stamps the owner's
   handle mid-churn, after some rows exist and before others do. *)
let inject_every = 40
let stamp_round = 150
let owner_stamp = 1000

(* Overwrite one slot of both tables verbatim: mostly a deep level (one
   the pool's IDs never reach, so usually row-less), with up to
   [redundancy] distinct pool IDs in ascending distance; one injection in
   three empties the owner's own slot of that level instead. *)
let inject_both irng ~pool ~handle_of packed (oracle : Oracle.Routing_table.t) =
  let levels = Routing_table.levels packed in
  let level =
    if Simnet.Rng.int irng 4 = 0 then Simnet.Rng.int irng levels
    else levels - 1 - Simnet.Rng.int irng 3
  in
  let owner = Routing_table.owner packed in
  let entries =
    if Simnet.Rng.int irng 3 = 0 then []
    else begin
      let k = Simnet.Rng.int irng (config.Config.redundancy + 1) in
      let picked = ref [] in
      while List.length !picked < k do
        let id = Simnet.Rng.pick irng pool in
        if not (List.exists (Node_id.equal id) (owner :: !picked)) then
          picked := id :: !picked
      done;
      List.mapi
        (fun i id -> { Routing_table.id; dist = float_of_int (i + 1) })
        (List.rev !picked)
    end
  in
  let digit =
    match entries with
    | [] -> Node_id.digit owner level
    | _ :: _ -> Simnet.Rng.int irng config.Config.base
  in
  Routing_table.inject_slot_for_test packed ~level ~digit
    (List.map (fun (e : Routing_table.entry) -> (handle_of e.id, e.dist)) entries);
  oracle.Oracle.Routing_table.slots.(level).(digit) <- entries

let test_differential_churn () =
  let rng = Simnet.Rng.create 4242 in
  let owner = random_id rng in
  let packed = Routing_table.create config ~owner in
  let oracle = Oracle.Routing_table.create config ~owner in
  (* a small id pool so removes and re-considers actually hit known nodes *)
  let pool = Array.init 48 (fun _ -> random_id rng) in
  (* a node's handle is immutable: each pool ID keeps the index of its
     first occurrence as its handle *)
  let pool_handle id =
    let rec go i = if Node_id.equal pool.(i) id then i else go (i + 1) in
    go 0
  in
  let owner_h = ref (-1) in
  let handle_of id =
    if Node_id.equal id owner then !owner_h else pool_handle id
  in
  let id_of_handle h = pool.(h) in
  (* the table's own name column, the pool at its handles; the owner
     stays unregistered (handle -1) until [stamp_round] *)
  let names = { Routing_table.ids = pool } in
  Routing_table.set_owner_handle packed names (-1);
  let irng = Simnet.Rng.create 77 in
  (* a fresh table is the owner alone, with no level row *)
  Alcotest.(check int) "fresh table allocates no level row" 0
    (Routing_table.allocated_rows packed);
  check_tables_agree ~round:0 ~handle_of packed oracle;
  for round = 1 to churn_rounds do
    if round = stamp_round then begin
      owner_h := owner_stamp;
      Routing_table.set_owner_handle packed names owner_stamp
    end;
    (match Simnet.Rng.int rng 10 with
    | 0 | 1 | 2 | 3 | 4 | 5 -> begin
        (* consider: a pool id (often already known) at every level it
           shares with the owner, like neighbor insertion does *)
        let candidate = Simnet.Rng.pick rng pool in
        if not (Node_id.equal candidate owner) then begin
          let cpl = Node_id.common_prefix_len owner candidate in
          let dist = Simnet.Rng.float rng 100. in
          for level = 0 to min cpl (Routing_table.levels packed - 1) do
            let vp =
              Routing_table.consider packed ~level ~candidate ~dist
                ~handle:(pool_handle candidate)
            in
            let vo = Oracle.Routing_table.consider oracle ~level ~candidate ~dist in
            Alcotest.(check string)
              (Printf.sprintf "round %d consider verdict" round)
              (verdict_str vo) (packed_verdict_str ~id_of_handle vp)
          done
        end
      end
    | 6 | 7 -> begin
        let victim = Simnet.Rng.pick rng pool in
        let lp = Routing_table.remove packed (pool_handle victim) in
        let lo = Oracle.Routing_table.remove oracle victim in
        Alcotest.(check (list int))
          (Printf.sprintf "round %d remove levels" round)
          lo lp
      end
    | _ -> begin
        (* re-measure: deterministic per (round, id) — some entries move,
           some drop *)
        let measure id =
          let h = (Node_id.hash id + (round * 7919)) land 0xFFFF in
          if h mod 13 = 0 then None else Some (float_of_int h /. 100.)
        in
        let cp =
          Routing_table.update_distances packed ~measure:(fun h ->
              measure (id_of_handle h))
        in
        let co = Oracle.Routing_table.update_distances oracle ~measure in
        Alcotest.(check int)
          (Printf.sprintf "round %d update_distances changed" round)
          co cp
      end);
    if round mod inject_every = 0 then
      inject_both irng ~pool ~handle_of packed oracle;
    if round mod 25 = 0 || round mod inject_every = 0 || round = stamp_round
    then check_tables_agree ~round ~handle_of packed oracle
  done;
  check_tables_agree ~round:churn_rounds ~handle_of packed oracle;
  (* the churn gave some levels rows and left others without *)
  let rows = Routing_table.allocated_rows packed in
  Alcotest.(check bool)
    (Printf.sprintf "rows on some levels, not all (%d)" rows)
    true
    (rows > 0 && rows < Routing_table.levels packed)

(* --- experiment-table determinism vs the committed fixture --- *)

(* dune runtest runs with cwd [_build/default/test]; [dune exec] from the
   repo root needs the prefixed path *)
let fixture =
  if Sys.file_exists "fixtures/e1_e2_seed42.txt" then
    "fixtures/e1_e2_seed42.txt"
  else "test/fixtures/e1_e2_seed42.txt"

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let render_experiment name =
  let tables =
    Evaluation.Experiment.by_name ~seed:42 ~domains:1 Evaluation.Experiment.Quick
      name
  in
  String.concat "\n" (List.map Simnet.Stats.Table.render tables)

let test_experiment_fixture () =
  let expected = read_file fixture in
  let actual =
    String.concat "\n" (List.map render_experiment [ "table1"; "stretch" ])
  in
  Alcotest.(check string) "E1/E2 tables at seed 42 match committed fixture"
    expected actual

let () =
  Alcotest.run "table_packed"
    [
      ( "differential",
        [ Alcotest.test_case "packed vs list-oracle churn" `Quick
            test_differential_churn ] );
      ( "determinism",
        [ Alcotest.test_case "E1/E2 fixture byte-identical" `Slow
            test_experiment_fixture ] );
    ]
