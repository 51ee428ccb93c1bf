(* Unit tests for identifiers, the trie index, routing tables, pointer
   stores and configuration. *)

open Tapestry

let rng = Simnet.Rng.create 2

let id_of s = Node_id.of_string ~base:16 s

(* --- Node_id --- *)

let test_id_roundtrip () =
  let id = Node_id.random ~base:16 ~len:8 rng in
  let s = Node_id.to_string id in
  Alcotest.(check int) "length" 8 (String.length s);
  Alcotest.(check bool) "roundtrip" true (Node_id.equal id (id_of s))

let test_id_of_string_invalid () =
  Alcotest.check_raises "bad digit"
    (Invalid_argument "Node_id.of_string: bad digit z") (fun () ->
      ignore (id_of "z1234567"))

let test_id_common_prefix () =
  Alcotest.(check int) "shares 3" 3 (Node_id.common_prefix_len (id_of "abc123") (id_of "abcf00"));
  Alcotest.(check int) "shares 0" 0 (Node_id.common_prefix_len (id_of "1bc123") (id_of "abcf00"));
  Alcotest.(check int) "identical" 6 (Node_id.common_prefix_len (id_of "abc123") (id_of "abc123"))

let test_id_has_prefix () =
  let id = id_of "abc123" in
  Alcotest.(check bool) "yes" true
    (Node_id.has_prefix id ~prefix:(Node_id.digits (id_of "abcfff")) ~len:3);
  Alcotest.(check bool) "no" false
    (Node_id.has_prefix id ~prefix:(Node_id.digits (id_of "abffff")) ~len:3)

let test_id_salt () =
  let id = Node_id.random ~base:16 ~len:8 rng in
  Alcotest.(check bool) "salt 0 is identity" true (Node_id.equal id (Node_id.salt ~base:16 id 0));
  let s1 = Node_id.salt ~base:16 id 1 in
  let s1' = Node_id.salt ~base:16 id 1 in
  Alcotest.(check bool) "salt deterministic" true (Node_id.equal s1 s1');
  let s2 = Node_id.salt ~base:16 id 2 in
  Alcotest.(check bool) "salts differ" false (Node_id.equal s1 s2)

let test_id_int_roundtrip () =
  let id = id_of "00ff01" in
  let v = Node_id.to_int ~base:16 id in
  Alcotest.(check int) "value" 0x00ff01 v;
  Alcotest.(check bool) "roundtrip" true
    (Node_id.equal id (Node_id.of_int ~base:16 ~len:6 v))

let test_id_collections () =
  let a = id_of "aa" and b = id_of "bb" in
  let s = Node_id.Set.add a (Node_id.Set.add b Node_id.Set.empty) in
  Alcotest.(check int) "set" 2 (Node_id.Set.cardinal s);
  let tbl = Node_id.Tbl.create 4 in
  Node_id.Tbl.replace tbl a 1;
  Node_id.Tbl.replace tbl (id_of "aa") 2;
  Alcotest.(check int) "hashtbl dedupes equal ids" 1 (Node_id.Tbl.length tbl)

(* --- Node_id against the digit-array reference --- *)

module Ref = Oracle.Node_id_ref

(* Bits a digit of radix [base] needs. *)
let bits_for base =
  let rec go b = if 1 lsl b >= base then b else go (b + 1) in
  go 1

(* The longest ID whose digit fields hold radix [base]. *)
let max_len_for base =
  let rec go l =
    if l < 56 && Node_id.field_bits (l + 1) >= bits_for base then go (l + 1)
    else l
  in
  go 0

(* A radix in 2..32, then two digit strings that fit one word: [b] shares
   a random prefix of [a] and usually has its length. *)
let shape_gen =
  QCheck.Gen.(
    int_range 2 32 >>= fun base ->
    let top = max_len_for base in
    int_range 0 top >>= fun la ->
    frequency [ (3, return la); (1, int_range 0 top) ] >>= fun lb ->
    array_repeat la (int_bound (base - 1)) >>= fun a ->
    array_repeat lb (int_bound (base - 1)) >>= fun b ->
    int_range 0 (min la lb) >>= fun shared ->
    Array.blit a 0 b 0 shared;
    return (base, a, b))

let print_shape (base, a, b) =
  let ds d = String.concat "," (Array.to_list (Array.map string_of_int d)) in
  Printf.sprintf "base %d a=[%s] b=[%s]" base (ds a) (ds b)

let sign c = Int.compare c 0

(* One ID of digits [d] on both sides: every observer agrees. *)
let agree_one ~base d =
  let t = Node_id.make d and r = Ref.make d in
  let len = Array.length d in
  let fail what = QCheck.Test.fail_reportf "%s differs" what in
  if Node_id.length t <> len then fail "length";
  Array.iteri (fun i x -> if Node_id.digit t i <> x then fail "digit") d;
  if Node_id.digits t <> d then fail "digits";
  if Node_id.hash t <> Ref.hash r then fail "hash";
  for n = 0 to len do
    if Node_id.prefix t n <> Ref.prefix r n then fail "prefix"
  done;
  let s = Node_id.to_string t in
  if not (String.equal s (Ref.to_string r)) then fail "to_string";
  if not (Node_id.equal (Node_id.of_string ~base s) t) then fail "of_string";
  let v = Node_id.to_int ~base t in
  if v <> Ref.to_int ~base r then fail "to_int";
  if not (Node_id.equal (Node_id.of_int ~base ~len v) t) then fail "of_int";
  for i = 0 to 3 do
    if Node_id.digits (Node_id.salt ~base t i) <> Ref.digits (Ref.salt ~base r i)
    then fail "salt"
  done;
  t

let prop_matches_reference =
  QCheck.Test.make ~count:2000 ~name:"node_id matches the digit-array reference"
    (QCheck.make ~print:print_shape shape_gen) (fun (base, a, b) ->
      let ta = agree_one ~base a and tb = agree_one ~base b in
      let ra = Ref.make a and rb = Ref.make b in
      let fail what = QCheck.Test.fail_reportf "%s differs" what in
      if Node_id.equal ta tb <> Ref.equal ra rb then fail "equal";
      if sign (Node_id.compare ta tb) <> sign (Ref.compare ra rb) then
        fail "compare";
      if Node_id.common_prefix_len ta tb <> Ref.common_prefix_len ra rb then
        fail "common_prefix_len";
      for len = 0 to Array.length b do
        if Node_id.has_prefix ta ~prefix:b ~len <> Ref.has_prefix ra ~prefix:b ~len
        then fail "has_prefix"
      done;
      true)

(* The digit polynomial, fixed: every Tbl's iteration order follows it. *)
let test_id_hash_pinned () =
  let pin s base v =
    Alcotest.(check int) s v (Node_id.hash (Node_id.of_string ~base s))
  in
  pin "00000000" 16 915604160967704565;
  pin "abc12345" 16 922280843484223693;
  pin "vvvvvvvvvvv" 32 4184709567841268231

let test_id_primitives_no_alloc () =
  let ids = Array.init 64 (fun _ -> Node_id.random ~base:16 ~len:8 rng) in
  let acc = ref 0 in
  let sweep () =
    for i = 0 to Array.length ids - 1 do
      let a = ids.(i) and b = ids.((i * 7) land 63) in
      acc :=
        !acc + Node_id.digit a (i land 7) + Node_id.hash a
        + Node_id.compare a b
        + Node_id.common_prefix_len a b
        + if Node_id.equal a b then 1 else 0
    done
  in
  sweep ();
  let w0 = Gc.minor_words () in
  sweep ();
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check (float 0.)) "digit/equal/compare/hash/cpl allocate nothing"
    0. words;
  ignore (Sys.opaque_identity !acc)

(* An ID is one immediate word: an array of them is its own block only. *)
let test_id_one_word () =
  let ids = Array.init 1000 (fun _ -> Node_id.random ~base:16 ~len:8 rng) in
  Alcotest.(check int) "1000 GUIDs: header + 1000 words" 1001
    (Obj.reachable_words (Obj.repr ids))

(* --- Config --- *)

let test_config_validate () =
  Alcotest.(check bool) "default ok" true (Config.validate Config.default = Ok ());
  let bad = { Config.default with Config.base = 10 } in
  Alcotest.(check bool) "non-power-of-two rejected" true (Config.validate bad <> Ok ());
  let bad2 = { Config.default with Config.redundancy = 0 } in
  Alcotest.(check bool) "zero redundancy rejected" true (Config.validate bad2 <> Ok ());
  let shape base id_digits = Config.validate { Config.default with Config.base; id_digits } in
  Alcotest.(check (result unit string)) "base 16 x 15 does not fit one word"
    (Error
       "base 16 x 15 digits does not fit one word: 15 digits leave 3 bits per \
        digit (at most 5, and 56 in all), base 16 needs 4")
    (shape 16 15);
  Alcotest.(check (result unit string)) "base 4 x 16 fits" (Ok ()) (shape 4 16);
  Alcotest.(check (result unit string)) "base 32 x 6 fits" (Ok ()) (shape 32 6)

let test_config_scaled_k () =
  let cfg = { Config.default with Config.k_list = 4 } in
  Alcotest.(check bool) "grows with n" true
    (Config.scaled_k cfg ~n:4096 > Config.scaled_k cfg ~n:16);
  Alcotest.(check bool) "floor respected" true (Config.scaled_k cfg ~n:2 >= 4)

(* --- Routing_table --- *)

let cfg4 = { Config.default with Config.id_digits = 4; redundancy = 2 }

let test_table_self_entries () =
  let owner = id_of "a1b2" in
  let t = Routing_table.create cfg4 ~owner in
  (* the owner occupies its own digit slot at every level *)
  for level = 0 to 3 do
    let digit = Node_id.digit owner level in
    match Routing_table.primary t ~level ~digit with
    | Some e -> Alcotest.(check bool) "self primary" true (Node_id.equal e.Routing_table.id owner)
    | None -> Alcotest.fail "missing self entry"
  done;
  Alcotest.(check int) "entry_count excludes self" 0 (Routing_table.entry_count t)

let test_table_consider_ordering () =
  let owner = id_of "a000" in
  let t = Routing_table.create cfg4 ~owner in
  (* three candidates for slot (1, digit of second position) with R=2 *)
  let c1 = id_of "ab11" and c2 = id_of "ab22" and c3 = id_of "ab33" in
  (* a registered owner (handle 0); each candidate keeps one handle, and
     the table's own name column maps handles to IDs *)
  let names = { Routing_table.ids = [| owner; c1; c2; c3; id_of "ab44" |] } in
  Routing_table.set_owner_handle t names 0;
  let consider id handle dist =
    Routing_table.consider t ~level:1 ~candidate:id ~handle ~dist
  in
  Alcotest.(check int) "add far" (-1) (consider c1 1 5.0);
  Alcotest.(check int) "add close" (-1) (consider c2 2 1.0);
  (match Routing_table.primary t ~level:1 ~digit:0xb with
  | Some e -> Alcotest.(check bool) "closest is primary" true (Node_id.equal e.Routing_table.id c2)
  | None -> Alcotest.fail "slot empty");
  (* closer third candidate evicts the farthest, reported by handle *)
  Alcotest.(check int) "evicted farthest" 1 (consider c3 3 2.0);
  (* a far fourth candidate is rejected *)
  Alcotest.(check int) "reject far" Routing_table.rejected
    (consider (id_of "ab44") 4 9.0);
  (* re-offering an existing one refreshes, not duplicates *)
  Alcotest.(check int) "known" Routing_table.known (consider c2 2 0.5);
  (* the owner, matched by its handle, is always known *)
  Alcotest.(check int) "owner known" Routing_table.known (consider owner 0 0.);
  Alcotest.(check int) "slot size" 2
    (List.length (Routing_table.slot t ~level:1 ~digit:0xb))

let test_table_remove_and_holes () =
  let owner = id_of "a000" in
  let t = Routing_table.create cfg4 ~owner in
  let c = id_of "ab11" in
  Routing_table.set_owner_handle t { Routing_table.ids = [| owner; c |] } 0;
  ignore (Routing_table.consider t ~level:0 ~candidate:c ~handle:1 ~dist:1.0);
  ignore (Routing_table.consider t ~level:1 ~candidate:c ~handle:1 ~dist:1.0);
  Alcotest.(check (list int)) "removed from both levels" [ 0; 1 ] (Routing_table.remove t 1);
  Alcotest.(check bool) "hole back" true (Routing_table.is_hole t ~level:1 ~digit:0xb);
  Alcotest.(check bool) "holes listed" true
    (List.exists (fun (l, d) -> l = 1 && d = 0xb) (Routing_table.holes t))

let test_table_backpointers () =
  let owner = id_of "a000" in
  let t = Routing_table.create cfg4 ~owner in
  let other = id_of "b000" and anon = id_of "d000" in
  (* the per-level vectors: holders [h0..], handle 100+i, at level 1; the
     table's own name column maps each handle to its ID *)
  let holders = List.init 11 (fun i -> id_of (Printf.sprintf "c%03x" i)) in
  let names = { Routing_table.ids = Array.make 111 owner } in
  names.ids.(5) <- other;
  names.ids.(7) <- anon;
  List.iteri (fun i id -> names.ids.(100 + i) <- id) holders;
  Routing_table.set_owner_handle t names 0;
  Routing_table.add_backpointer t ~level:0 5;
  Alcotest.(check int) "one bp" 1 (List.length (Routing_table.backpointers t ~level:0));
  Routing_table.add_backpointer t ~level:0 0;
  Alcotest.(check int) "self skipped" 1 (List.length (Routing_table.backpointers t ~level:0));
  Routing_table.remove_backpointer t ~level:0 other;
  Alcotest.(check int) "removed" 0 (List.length (Routing_table.backpointers t ~level:0));
  let strs ids = List.map Node_id.to_string ids in
  let bps level = strs (Routing_table.backpointers t ~level) in
  let at_index level =
    List.init (Routing_table.backpointer_len t ~level) (fun k ->
        Printf.sprintf "%s/%d"
          (Node_id.to_string (Routing_table.backpointer_id t ~level ~k))
          (Routing_table.backpointer_handle t ~level ~k))
  in
  (* growth: eleven holders overflow the initial capacity (and its first
     doubling) and keep recording order *)
  List.iteri
    (fun i _ -> Routing_table.add_backpointer t ~level:1 (100 + i))
    holders;
  Alcotest.(check (list string)) "recording order survives growth" (strs holders)
    (bps 1);
  Alcotest.(check int) "len" 11 (Routing_table.backpointer_len t ~level:1);
  Alcotest.(check (list string)) "index accessors agree with the list"
    (List.mapi (fun i id -> Printf.sprintf "%s/%d" (Node_id.to_string id) (100 + i)) holders)
    (at_index 1);
  Routing_table.add_backpointer t ~level:2 7;
  Alcotest.(check (list string)) "stored with its handle" [ "d000/7" ]
    (at_index 2);
  (* removal by handle and by id (a handle that names no holder removes
     nothing, whatever the id); the others keep their relative order *)
  Routing_table.remove_backpointer ~handle:100 t ~level:1 (List.hd holders);
  Routing_table.remove_backpointer t ~level:1 (List.nth holders 5);
  Routing_table.remove_backpointer ~handle:999 t ~level:1 (List.nth holders 7);
  let kept =
    List.filteri (fun i _ -> i <> 0 && i <> 5) holders |> strs
  in
  Alcotest.(check (list string)) "removed by handle and by id, order kept" kept
    (bps 1);
  Routing_table.remove_backpointer t ~level:1 (id_of "eeee");
  Alcotest.(check (list string)) "absent holder: no-op" kept (bps 1);
  (* re-adding a removed holder appends it *)
  Routing_table.add_backpointer t ~level:1 100;
  Alcotest.(check (list string)) "re-added at the end"
    (kept @ [ Node_id.to_string (List.hd holders) ])
    (bps 1);
  Alcotest.(check int) "backpointer_count" (10 + 1)
    (Routing_table.backpointer_count t);
  (* all_backpointers: top level first, newest holder first *)
  Routing_table.add_backpointer t ~level:0 5;
  let all =
    Routing_table.all_backpointers t
    |> List.map (fun (l, id) -> Printf.sprintf "%d:%s" l (Node_id.to_string id))
  in
  Alcotest.(check (list string)) "all_backpointers order"
    (("2:d000" :: List.rev_map (fun s -> "1:" ^ s) (bps 1))
    @ [ "0:" ^ Node_id.to_string other ])
    all;
  Alcotest.(check int) "backpointer_count matches" (List.length all)
    (Routing_table.backpointer_count t)

(* [add_backpointer] appends without a scan; it is link maintenance that
   keeps a holder from being recorded twice: a repeated offer of the same
   link is [known] and writes no backpointer. *)
let test_link_repeat_no_duplicate_backpointer () =
  let metric =
    Simnet.Topology.generate Simnet.Topology.Uniform_square ~n:2
      ~rng:(Simnet.Rng.create 1)
  in
  let net = Network.create cfg4 metric in
  let a = Node.create cfg4 ~id:(id_of "a000") ~addr:0 in
  let b = Node.create cfg4 ~id:(id_of "b000") ~addr:1 in
  Network.register net a;
  Network.register net b;
  Alcotest.(check bool) "first offer adds" true
    (Network.offer_link net ~owner:a ~level:0 ~candidate:b);
  Alcotest.(check bool) "repeat is known" false
    (Network.offer_link net ~owner:a ~level:0 ~candidate:b);
  Alcotest.(check int) "no dup" 1 (Routing_table.backpointer_len b.Node.table ~level:0);
  Alcotest.(check int) "holder recorded by handle" a.Node.handle
    (Routing_table.backpointer_handle b.Node.table ~level:0 ~k:0)

(* Each network keeps its own name column: two networks built in one
   process give the same handles to different IDs, and each one's tables
   resolve their entries and holders to its own nodes. *)
let test_names_per_network () =
  let metric =
    Simnet.Topology.generate Simnet.Topology.Uniform_square ~n:2
      ~rng:(Simnet.Rng.create 1)
  in
  let pair a b =
    let net = Network.create cfg4 metric in
    let a = Node.create cfg4 ~id:(id_of a) ~addr:0 in
    let b = Node.create cfg4 ~id:(id_of b) ~addr:1 in
    Network.register net a;
    Network.register net b;
    ignore (Network.offer_link net ~owner:a ~level:0 ~candidate:b);
    (a, b)
  in
  let a1, b1 = pair "a000" "b000" in
  let a2, b2 = pair "c000" "d000" in
  let check (a : Node.t) (b : Node.t) =
    let digit = Node_id.digit b.Node.id 0 in
    Alcotest.(check string) "slot_id names this network's node"
      (Node_id.to_string b.Node.id)
      (Node_id.to_string (Routing_table.slot_id a.Node.table ~level:0 ~digit ~k:0));
    Alcotest.(check string) "backpointer_id names this network's holder"
      (Node_id.to_string a.Node.id)
      (Node_id.to_string (Routing_table.backpointer_id b.Node.table ~level:0 ~k:0))
  in
  Alcotest.(check (pair int int)) "same handles in both networks"
    (a1.Node.handle, b1.Node.handle) (a2.Node.handle, b2.Node.handle);
  check a1 b1;
  check a2 b2

(* An entry naming a node that has since died keeps that node's ID: the
   paths that purge and repair dead entries are handed the dead ID, and
   [Delete.on_dead_repair] with it drops the entry and its backpointer. *)
let test_dead_entry_keeps_name () =
  let metric =
    Simnet.Topology.generate Simnet.Topology.Uniform_square ~n:3
      ~rng:(Simnet.Rng.create 1)
  in
  let net = Network.create cfg4 metric in
  let node i s =
    let n = Node.create cfg4 ~id:(id_of s) ~addr:i in
    Network.register net n;
    n
  in
  let owner = node 0 "a000" and dead = node 1 "b000" and _spare = node 2 "c000" in
  ignore (Network.offer_link_all_levels net ~owner ~candidate:dead);
  Delete.fail net dead;
  let named = ref [] in
  Routing_table.iter_entries owner.Node.table (fun ~level:_ ~digit:_ e ->
      match Network.find net e.Routing_table.id with
      | Some n when not (Node.is_alive n) -> named := e.Routing_table.id :: !named
      | _ -> ());
  Alcotest.(check (list string)) "the dead entry still names b000" [ "b000" ]
    (List.map Node_id.to_string !named);
  Delete.on_dead_repair net ~owner ~dead:dead.Node.id;
  Alcotest.(check int) "entry dropped" 0 (Routing_table.entry_count owner.Node.table);
  Alcotest.(check int) "backpointer dropped" 0
    (Routing_table.backpointer_count dead.Node.table)

(* The three ID-keyed calls an external mesh audit makes ([iter_entries]'s
   [id], [all_backpointers] and the ID form of [remove_backpointer]) agree
   with the arena on a mesh churned by failures and joins, and drive its
   repair to an audit-clean mesh. *)
let test_id_calls_on_churned_mesh () =
  let n = 200 and extra = 20 in
  let rng = Simnet.Rng.create 11 in
  let metric =
    Simnet.Topology.generate Simnet.Topology.Uniform_square ~n:(n + extra) ~rng
  in
  let net, _ = Static_build.build_streamed ~seed:12 Config.default metric ~n in
  List.iteri (fun i node -> if i mod 9 = 0 then Delete.fail net node)
    (Network.core_nodes net);
  for i = 0 to extra - 1 do
    ignore (Insert.insert net ~gateway:(Network.random_alive net) ~addr:(n + i))
  done;
  let name h = (Network.node_of_handle net h).Node.id in
  Network.iter_alive net (fun (owner : Node.t) ->
      let t = owner.Node.table in
      let from_ids = ref [] and from_handles = ref [] in
      Routing_table.iter_entries t (fun ~level:_ ~digit:_ e ->
          from_ids := Node_id.to_string e.Routing_table.id :: !from_ids);
      Routing_table.iter_handles t (fun ~level:_ h ->
          from_handles := Node_id.to_string (name h) :: !from_handles);
      Alcotest.(check (list string)) "entry IDs are the arena's" !from_handles
        !from_ids;
      let by_handle = ref [] in
      for level = 0 to Routing_table.levels t - 1 do
        for k = 0 to Routing_table.backpointer_len t ~level - 1 do
          by_handle :=
            (level, Node_id.to_string (name (Routing_table.backpointer_handle t ~level ~k)))
            :: !by_handle
        done
      done;
      Alcotest.(check (list (pair int string))) "holder IDs are the arena's"
        !by_handle
        (List.map (fun (l, id) -> (l, Node_id.to_string id)) (Routing_table.all_backpointers t)));
  (* the external audit's repair, keyed by ID throughout *)
  let dead_met = ref 0 in
  Network.iter_alive net (fun owner ->
      let dead = ref [] in
      Routing_table.iter_entries owner.Node.table (fun ~level:_ ~digit:_ e ->
          let id = e.Routing_table.id in
          match Network.find net id with
          | Some x when Node.is_alive x -> ()
          | _ -> if not (List.exists (Node_id.equal id) !dead) then dead := id :: !dead);
      dead_met := !dead_met + List.length !dead;
      List.iter (fun d -> Delete.on_dead_repair net ~owner ~dead:d) (List.rev !dead));
  Alcotest.(check bool) "dead entries met" true (!dead_met > 0);
  ignore (Delete.repair_all_holes net : int);
  Network.iter_alive net (fun n ->
      List.iter
        (fun (level, src) ->
          match Network.find net src with
          | Some s when Node.is_alive s -> ()
          | _ -> Routing_table.remove_backpointer n.Node.table ~level src)
        (Routing_table.all_backpointers n.Node.table));
  Alcotest.(check (list string)) "repaired mesh audits clean" []
    (List.map Audit.violation_code (Audit.run net).Audit.violations)

(* (digit, rank) of handle [h] in a level's slots, or None. *)
let slot_position (t : Routing_table.t) ~level h =
  let found = ref None in
  for digit = 0 to Routing_table.base t - 1 do
    for k = 0 to Routing_table.slot_len t ~level ~digit - 1 do
      if Routing_table.slot_handle t ~level ~digit ~k = h then
        found := Some (digit, k)
    done
  done;
  !found

(* A level's neighbours, read off the slots by handle: every alive slot
   entry but the owner, each once, in (digit, rank) order, on every
   level of a 256-node mesh with 15% of it dead. *)
let test_live_neighbours () =
  let n = 256 in
  let rng = Simnet.Rng.create 7 in
  let metric = Simnet.Topology.generate Simnet.Topology.Uniform_square ~n ~rng in
  let net, _ = Static_build.build_streamed ~seed:8 Config.default metric ~n in
  let nodes = Network.core_nodes net in
  List.iteri (fun i node -> if i mod 7 = 0 then Delete.fail net node) nodes;
  let dead_seen = ref 0 in
  List.iter
    (fun (node : Node.t) ->
      let t = node.Node.table in
      for level = 0 to Routing_table.levels t - 1 do
        let fail what =
          Alcotest.failf "node %s level %d: %s" (Node_id.to_string node.Node.id)
            level what
        in
        let alive = ref 0 in
        for digit = 0 to Routing_table.base t - 1 do
          for k = 0 to Routing_table.slot_len t ~level ~digit - 1 do
            let h = Routing_table.slot_handle t ~level ~digit ~k in
            if h <> node.Node.handle then
              if Node.is_alive (Network.node_of_handle net h) then incr alive
              else incr dead_seen
          done
        done;
        let got = Network.live_neighbours net node ~level in
        if List.length got <> !alive then fail "not every alive entry";
        ignore
          (List.fold_left
             (fun prev (m : Node.t) ->
               if m.Node.handle = node.Node.handle then fail "owner listed";
               if not (Node.is_alive m) then fail "dead entry listed";
               match slot_position t ~level m.Node.handle with
               | None -> fail "not a slot entry"
               | Some ((d, k) as pos) ->
                   let pd, pk = prev in
                   if d < pd || (d = pd && k <= pk) then
                     fail "out of (digit, rank) order";
                   pos)
             (-1, -1) got
            : int * int)
      done)
    (Network.core_nodes net);
  Alcotest.(check bool) "dead entries met" true (!dead_seen > 0)

(* A dead node held at two levels is listed once, where the (level,
   digit, rank) walk first meets it; live nodes are left out. *)
let test_dead_neighbours () =
  let metric =
    Simnet.Topology.generate Simnet.Topology.Uniform_square ~n:4
      ~rng:(Simnet.Rng.create 1)
  in
  let net = Network.create cfg4 metric in
  let node i s =
    let n = Node.create cfg4 ~id:(id_of s) ~addr:i in
    Network.register net n;
    n
  in
  let owner = node 0 "a000" in
  let twice = node 1 "a100" and once = node 2 "b000" and live = node 3 "c000" in
  List.iter
    (fun candidate -> ignore (Network.offer_link_all_levels net ~owner ~candidate))
    [ once; twice; live ];
  Delete.fail net twice;
  Delete.fail net once;
  let dead =
    Delete.dead_neighbours net owner
    |> List.map (fun (n : Node.t) -> Node_id.to_string n.Node.id)
  in
  Alcotest.(check (list string)) "each dead node once, in walk order"
    [ "a100"; "b000" ] dead

(* --- Pointer_store --- *)

let test_pointer_store_roundtrip () =
  let ps = Pointer_store.create () in
  let guid = id_of "dead" and server = 7 in
  Alcotest.(check int) "new" Pointer_store.fresh
    (Pointer_store.store ps ~guid ~server ~root_idx:0 ~previous:(-1) ~expires:10.);
  Alcotest.(check int) "refresh returns the old previous" (-1)
    (Pointer_store.store ps ~guid ~server ~root_idx:0 ~previous:3 ~expires:20.);
  Alcotest.(check int) "size" 1 (Pointer_store.size ps);
  (match Pointer_store.find ps ~guid ~server ~root_idx:0 with
  | -1 -> Alcotest.fail "record missing"
  | i ->
      let c = Pointer_store.cols ps in
      Alcotest.(check int) "previous updated" 3 (Pointer_store.previous c i);
      Alcotest.(check bool) "expiry extended" true (c.expires.(i) >= 20.));
  Alcotest.(check int) "second refresh returns the first's hop" 3
    (Pointer_store.store ps ~guid ~server ~root_idx:0 ~previous:(-1) ~expires:1.);
  (* same guid+server, different root: distinct record *)
  ignore (Pointer_store.store ps ~guid ~server ~root_idx:1 ~previous:(-1) ~expires:10.);
  Alcotest.(check int) "roots distinct" 2 (Pointer_store.size ps);
  let seen = ref 0 in
  Pointer_store.iter_guid ps guid ~f:(fun _ _ -> incr seen);
  Alcotest.(check int) "iter_guid sees both" 2 !seen

let test_pointer_store_expiry () =
  let ps = Pointer_store.create () in
  let guid = id_of "dead" in
  ignore (Pointer_store.store ps ~guid ~server:1 ~root_idx:0 ~previous:(-1) ~expires:5.);
  ignore (Pointer_store.store ps ~guid ~server:2 ~root_idx:0 ~previous:(-1) ~expires:50.);
  Alcotest.(check int) "one expired" 1 (Pointer_store.expire ps ~now:10.);
  Alcotest.(check int) "one left" 1 (Pointer_store.size ps);
  Alcotest.(check bool) "guid still known" true (Pointer_store.mem_guid ps guid)

let test_pointer_store_remove () =
  let ps = Pointer_store.create () in
  let g1 = id_of "aaaa" and g2 = id_of "bbbb" in
  ignore (Pointer_store.store ps ~guid:g1 ~server:1 ~root_idx:0 ~previous:(-1) ~expires:5.);
  ignore (Pointer_store.store ps ~guid:g1 ~server:2 ~root_idx:0 ~previous:(-1) ~expires:5.);
  ignore (Pointer_store.store ps ~guid:g2 ~server:1 ~root_idx:0 ~previous:(-1) ~expires:5.);
  Alcotest.(check bool) "remove one" true
    (Pointer_store.remove ps ~guid:g1 ~server:1 ~root_idx:0);
  Alcotest.(check bool) "already gone" false
    (Pointer_store.remove ps ~guid:g1 ~server:1 ~root_idx:0);
  Alcotest.(check bool) "remove the last of g1" true
    (Pointer_store.remove ps ~guid:g1 ~server:2 ~root_idx:0);
  Alcotest.(check bool) "g1 gone" false (Pointer_store.mem_guid ps g1);
  Alcotest.(check int) "g2 untouched" 1 (Pointer_store.size ps);
  Alcotest.(check bool) "g2 still held" true (Pointer_store.mem_guid ps g2)

let () =
  Alcotest.run "ids"
    [
      ( "node_id",
        [
          Alcotest.test_case "roundtrip" `Quick test_id_roundtrip;
          Alcotest.test_case "invalid parse" `Quick test_id_of_string_invalid;
          Alcotest.test_case "common prefix" `Quick test_id_common_prefix;
          Alcotest.test_case "has_prefix" `Quick test_id_has_prefix;
          Alcotest.test_case "salt" `Quick test_id_salt;
          Alcotest.test_case "int roundtrip" `Quick test_id_int_roundtrip;
          Alcotest.test_case "collections" `Quick test_id_collections;
          Alcotest.test_case "hash pinned" `Quick test_id_hash_pinned;
          Alcotest.test_case "primitives allocate nothing" `Quick
            test_id_primitives_no_alloc;
          Alcotest.test_case "one word per ID" `Quick test_id_one_word;
          QCheck_alcotest.to_alcotest prop_matches_reference;
        ] );
      ( "config",
        [
          Alcotest.test_case "validate" `Quick test_config_validate;
          Alcotest.test_case "scaled k" `Quick test_config_scaled_k;
        ] );
      ( "routing_table",
        [
          Alcotest.test_case "self entries" `Quick test_table_self_entries;
          Alcotest.test_case "consider ordering" `Quick test_table_consider_ordering;
          Alcotest.test_case "remove & holes" `Quick test_table_remove_and_holes;
          Alcotest.test_case "backpointers" `Quick test_table_backpointers;
          Alcotest.test_case "names per network" `Quick test_names_per_network;
          Alcotest.test_case "dead entry keeps its name" `Quick
            test_dead_entry_keeps_name;
          Alcotest.test_case "ID-keyed calls on a churned mesh" `Quick
            test_id_calls_on_churned_mesh;
          Alcotest.test_case "live_neighbours" `Quick test_live_neighbours;
          Alcotest.test_case "dead_neighbours" `Quick test_dead_neighbours;
          Alcotest.test_case "repeated link: one backpointer" `Quick
            test_link_repeat_no_duplicate_backpointer;
        ] );
      ( "pointer_store",
        [
          Alcotest.test_case "roundtrip" `Quick test_pointer_store_roundtrip;
          Alcotest.test_case "expiry" `Quick test_pointer_store_expiry;
          Alcotest.test_case "remove" `Quick test_pointer_store_remove;
        ] );
    ]
