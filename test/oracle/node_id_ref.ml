(* Reference model for [Tapestry.Node_id]: the digit-array
   representation the one-word ID replaced, kept as the oracle for the
   differential properties in test_ids.  An ID is its digit array plus
   the cached digit polynomial; every operation walks the array, which is
   the point.  Unlike [Node_id], it takes any digits and any length, so
   the properties feed it only shapes that fit one word. *)

type t = { d : int array; h : int }

(* Digits use the 0-9 then a-v alphabet, covering radices up to 32. *)
let alphabet = "0123456789abcdefghijklmnopqrstuv"

let rec hash_from (d : int array) i acc =
  if i >= Array.length d then acc land max_int
  else hash_from d (i + 1) ((acc * 131) + d.(i) + 1)

let compute_hash d = hash_from d 0 5381

let make d = { d; h = compute_hash d }

let random ~base ~len rng =
  make (Array.init len (fun _ -> Simnet.Rng.int rng base))

let to_string t =
  String.init (Array.length t.d) (fun i -> alphabet.[t.d.(i)])

let of_string ~base s =
  let parse c =
    let v = String.index_opt alphabet c in
    match v with
    | Some v when v < base -> v
    | _ -> invalid_arg (Printf.sprintf "Node_id.of_string: bad digit %c" c)
  in
  make (Array.init (String.length s) (fun i -> parse s.[i]))

let length t = Array.length t.d

let digit t i = t.d.(i)

let digits t = Array.copy t.d

(* The digit scans below are top-level recursions taking every operand as
   an argument: a local [go] closing over the two arrays would allocate a
   closure on every call, and these run several times per candidate in
   every join. *)
let rec digits_equal_from (a : int array) (b : int array) i =
  i < 0 || (a.(i) = b.(i) && digits_equal_from a b (i - 1))

let equal a b =
  a.h = b.h
  && Array.length a.d = Array.length b.d
  && digits_equal_from a.d b.d (Array.length a.d - 1)

let rec compare_from (a : int array) (b : int array) ~n ~la ~lb i =
  if i = n then Int.compare la lb
  else
    match Int.compare a.(i) b.(i) with
    | 0 -> compare_from a b ~n ~la ~lb (i + 1)
    | c -> c

(* Digit-by-digit, most significant first; shorter IDs order before their
   extensions (same order Stdlib.compare gave on the digit arrays, but
   explicit so no polymorphic comparison touches protocol values). *)
let compare a b =
  let la = Array.length a.d and lb = Array.length b.d in
  compare_from a.d b.d ~n:(Int.min la lb) ~la ~lb 0

let hash t = t.h

let rec prefix_len_from (a : int array) (b : int array) ~n i =
  if i < n && a.(i) = b.(i) then prefix_len_from a b ~n (i + 1) else i

let common_prefix_len a b =
  prefix_len_from a.d b.d ~n:(Int.min (Array.length a.d) (Array.length b.d)) 0

let rec has_prefix_from (d : int array) (prefix : int array) ~len i =
  i >= len || (d.(i) = prefix.(i) && has_prefix_from d prefix ~len (i + 1))

let has_prefix t ~prefix ~len =
  Array.length t.d >= len && has_prefix_from t.d prefix ~len 0

let prefix t n = Array.sub t.d 0 n

let salt ~base t i =
  if i = 0 then t
  else begin
    (* Derive psi_i by mixing the salt index through a splitmix stream seeded
       from the digits; deterministic wherever it is evaluated (Property 3). *)
    let seed = Array.fold_left (fun acc x -> (acc * 8191) + x + i) (i * 7919) t.d in
    let rng = Simnet.Rng.create seed in
    make (Array.init (Array.length t.d) (fun _ -> Simnet.Rng.int rng base))
  end

let to_int ~base t =
  (* Read digits most-significant first. *)
  Array.fold_left (fun acc x -> (acc * base) + x) 0 t.d

let of_int ~base ~len v =
  let d = Array.make len 0 in
  let rec go i v =
    if i >= 0 then begin
      d.(i) <- v mod base;
      go (i - 1) (v / base)
    end
  in
  go (len - 1) v;
  make d

