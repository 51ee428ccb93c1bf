(* Seeded lint fixture: every expression rule must fire on this file.
   The dune rule in ../dune runs the linter over it and requires a
   non-zero exit.  Never "fix" this file. *)

let xs = [ 1; 2; 3 ]

let _mem = List.mem 2 xs (* poly-eq-fn *)

let _assoc = List.assoc 1 [ (1, "a") ] (* poly-eq-fn *)

let _eq_fn = List.filter (( = ) 1) xs (* poly-eq-fn *)

let _cmp = List.sort compare xs (* poly-compare *)

let _cmp_qualified = Stdlib.compare 1 2 (* poly-compare *)

let _hash = Hashtbl.hash xs (* poly-eq-fn *)

let _empty = xs = [] (* eq-empty-list *)

let _nonempty = xs <> [] (* eq-empty-list *)

let _roll = Random.int 6 (* ambient-rng *)

let _cpu = Sys.time () (* ambient-time *)

let _wall = Unix.gettimeofday () (* ambient-time *)

let _effect = Effect.perform (* effect-handler *)
