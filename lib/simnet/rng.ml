(* The 64-bit state in 8 bytes: [Bytes.get_int64_ne]/[set_int64_ne] read
   and write it unboxed, where an [int64] record field would box every
   draw's new state (3 words).  With [mix] and [int64] inlined, a draw
   allocates nothing. *)
type t = Bytes.t

let[@inline] state t = Bytes.get_int64_ne t 0

let[@inline] of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 s;
  t

let golden = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed = of_state (mix (Int64.of_int seed))

let[@inline] int64 t =
  let s = Int64.add (state t) golden in
  Bytes.set_int64_ne t 0 s;
  mix s

let split t =
  let child_seed = int64 t in
  of_state (mix child_seed)

let copy t = Bytes.copy t

let[@inline] int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let r = Int64.to_int (Int64.shift_right_logical (int64 t) 1) land max_int in
  r mod bound

let[@inline] float t bound =
  (* 53 random bits scaled to [0, 1), as in the stdlib implementation. *)
  let bits = Int64.to_int (Int64.shift_right_logical (int64 t) 11) in
  bound *. (float_of_int bits /. 9007199254740992.0)

let bool t = Int64.logand (int64 t) 1L = 1L

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let pick t a =
  if Array.length a = 0 then invalid_arg "Rng.pick: empty array";
  a.(int t (Array.length a))

let pick_list t l =
  match l with
  | [] -> invalid_arg "Rng.pick_list: empty list"
  | _ -> List.nth l (int t (List.length l))

let[@inline] exponential t ~mean =
  let u = float t 1.0 in
  let u = if u <= 0.0 then epsilon_float else u in
  -.mean *. log u
