(* Differential tests for the packed routing table.

   The packed flat-array implementation (Routing_table.t) and the original
   list-based one (Oracle.Routing_table.t) are driven through identical
   randomized churn — consider / remove / update_distances — and must agree
   on every verdict and on every slot's exact contents and order.  A second
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
   distances. *)
let check_tables_agree ~round packed oracle =
  let levels = Routing_table.levels packed in
  for level = 0 to levels - 1 do
    for digit = 0 to config.Config.base - 1 do
      let p = Routing_table.slot packed ~level ~digit in
      let o = Oracle.Routing_table.slot oracle ~level ~digit in
      Alcotest.(check string)
        (Printf.sprintf "round %d slot (%d,%d)" round level digit)
        (slot_str o) (slot_str p);
      let prim_str = function None -> "-" | Some e -> entry_str e in
      Alcotest.(check string)
        (Printf.sprintf "round %d primary (%d,%d)" round level digit)
        (prim_str (Oracle.Routing_table.primary oracle ~level ~digit))
        (prim_str (Routing_table.primary packed ~level ~digit))
    done
  done

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

let test_differential_churn () =
  let rng = Simnet.Rng.create 4242 in
  let owner = random_id rng in
  let packed = Routing_table.create config ~owner in
  let oracle = Oracle.Routing_table.create config ~owner in
  (* a small id pool so removes and re-considers actually hit known nodes *)
  let pool = Array.init 48 (fun _ -> random_id rng) in
  (* a node's handle is immutable: each pool ID keeps the index of its
     first occurrence as its handle *)
  let handle_of id =
    let rec go i = if Node_id.equal pool.(i) id then i else go (i + 1) in
    go 0
  in
  let id_of_handle h = pool.(h) in
  for round = 1 to churn_rounds do
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
                ~handle:(handle_of candidate)
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
        let lp = Routing_table.remove packed victim in
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
        let cp = Routing_table.update_distances packed ~measure in
        let co = Oracle.Routing_table.update_distances oracle ~measure in
        Alcotest.(check int)
          (Printf.sprintf "round %d update_distances changed" round)
          co cp
      end);
    if round mod 25 = 0 then check_tables_agree ~round packed oracle
  done;
  check_tables_agree ~round:churn_rounds packed oracle

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
