(* One immediate int per ID.  Bits 0-5 hold the length [len]; the digits
   sit above it, most significant digit highest, each in a field of
   [widths.(len) = min 5 (56 / len)] bits.  Digit [i] therefore starts at
   bit [6 + w * (len - 1 - i)], IDs of one length order as ints, and the
   whole ID fits in 62 bits, so it is never negative. *)
type t = int

(* Digits use the 0-9 then a-v alphabet, covering radices up to 32. *)
let alphabet = "0123456789abcdefghijklmnopqrstuv"

let len_bits = 6
let len_mask = (1 lsl len_bits) - 1
let max_len = 56

(* Field width per length, a table so that [digit] and [hash] never
   divide.  Length 0 has no field; its entry only keeps reads uniform. *)
let widths =
  Array.init (max_len + 1) (fun len -> if len = 0 then 5 else min 5 (max_len / len))

let field_bits len = if len < 0 || len > max_len then 0 else widths.(len)

let length t = t land len_mask

(* The width of an ID of [len] digits, rejecting lengths that leave no
   field. *)
let width_of_len len =
  let w = field_bits len in
  if w = 0 then invalid_arg "Node_id: more than 56 digits do not fit one word";
  w

(* [acc] with digit [x] appended below its digits. *)
let push ~w acc x =
  if x lsr w <> 0 then
    invalid_arg "Node_id: digit wider than its field (see Node_id.field_bits)";
  (acc lsl w) lor x

let finish acc len = (acc lsl len_bits) lor len

let digit t i =
  let len = length t in
  if i < 0 || i >= len then invalid_arg "Node_id.digit: index out of bounds";
  let w = widths.(len) in
  (t lsr (len_bits + (w * (len - 1 - i)))) land ((1 lsl w) - 1)

(* [@alloc_ok] on the constructors and conversions below: building an
   array, a string or a salt's generator allocates.  The comparisons and
   prefix scans further down allocate nothing. *)
let[@alloc_ok] make d =
  let len = Array.length d in
  let w = width_of_len len in
  finish (Array.fold_left (push ~w) 0 d) len

let[@alloc_ok] random ~base ~len rng =
  let w = width_of_len len in
  let acc = ref 0 in
  for _ = 1 to len do
    acc := push ~w !acc (Simnet.Rng.int rng base)
  done;
  finish !acc len

let[@alloc_ok] to_string t = String.init (length t) (fun i -> alphabet.[digit t i])

let[@alloc_ok] of_string ~base s =
  let parse c =
    let v = String.index_opt alphabet c in
    match v with
    | Some v when v < base -> v
    | _ -> invalid_arg (Printf.sprintf "Node_id.of_string: bad digit %c" c)
  in
  let len = String.length s in
  let w = width_of_len len in
  finish (String.fold_left (fun acc c -> push ~w acc (parse c)) 0 s) len

let[@alloc_ok] digits t = Array.init (length t) (digit t)

let equal = Int.equal

(* The digit scans below are top-level recursions taking every operand as
   an argument: a local [go] would allocate a closure on every call. *)
let rec compare_from a b ~n ~la ~lb i =
  if i = n then Int.compare la lb
  else
    match Int.compare (digit a i) (digit b i) with
    | 0 -> compare_from a b ~n ~la ~lb (i + 1)
    | c -> c

(* Digit by digit, most significant first; shorter IDs order before
   their extensions.  At equal lengths that is the order of the ints. *)
let compare a b =
  let la = length a and lb = length b in
  if la = lb then Int.compare a b
  else compare_from a b ~n:(Int.min la lb) ~la ~lb 0

let rec hash_from t ~w ~m shift acc =
  if shift < len_bits then acc land max_int
  else hash_from t ~w ~m (shift - w) ((acc * 131) + ((t lsr shift) land m) + 1)

(* The polynomial the digit-array representation cached: 5381, then
   [acc * 131 + digit + 1] per digit, most significant first.  Every
   [Tbl] keeps the bucket and iteration order it had with that hash. *)
let hash t =
  let len = length t in
  let w = widths.(len) in
  hash_from t ~w ~m:((1 lsl w) - 1) (len_bits + (w * (len - 1))) 5381

(* The first field of [x] from the top that is non-zero, or [len]. *)
let rec first_nonzero x ~w ~len shift i =
  if i = len || x lsr shift <> 0 then i
  else first_nonzero x ~w ~len (shift - w) (i + 1)

let rec prefix_len_from a b ~n i =
  if i < n && digit a i = digit b i then prefix_len_from a b ~n (i + 1) else i

let common_prefix_len a b =
  let la = length a and lb = length b in
  if la = lb then begin
    let w = widths.(la) in
    first_nonzero (a lxor b) ~w ~len:la (len_bits + (w * (la - 1))) 0
  end
  else prefix_len_from a b ~n:(Int.min la lb) 0

let rec has_prefix_from t (prefix : int array) ~len i =
  i >= len || (digit t i = prefix.(i) && has_prefix_from t prefix ~len (i + 1))

let has_prefix t ~prefix ~len = length t >= len && has_prefix_from t prefix ~len 0

let[@alloc_ok] prefix t n = Array.init n (digit t)

(* Bits [at] up hold the first [level] digits, then [digit]; below them
   the later fields are all clear in the least ID and all set in the
   greatest.  [@alloc_ok]: the pair. *)
let[@alloc_ok] extensions t ~level ~digit =
  let len = length t in
  if level < 0 || level >= len then
    invalid_arg "Node_id.extensions: level out of bounds";
  let w = widths.(len) in
  let at = len_bits + (w * (len - 1 - level)) in
  let least = (push ~w (t lsr (at + w)) digit lsl at) lor len in
  (least, least lor (((1 lsl at) - 1) land lnot len_mask))

let[@alloc_ok] salt ~base t i =
  if i = 0 then t
  else begin
    (* Derive psi_i by mixing the salt index through a splitmix stream seeded
       from the digits; deterministic wherever it is evaluated (Property 3). *)
    let len = length t in
    let seed = ref (i * 7919) in
    for k = 0 to len - 1 do
      seed := (!seed * 8191) + digit t k + i
    done;
    random ~base ~len (Simnet.Rng.create !seed)
  end

let[@alloc_ok] to_int ~base t =
  (* Read digits most-significant first. *)
  let acc = ref 0 in
  for k = 0 to length t - 1 do
    acc := (!acc * base) + digit t k
  done;
  !acc

let[@alloc_ok] of_int ~base ~len v =
  let w = width_of_len len in
  let rec go i v acc =
    if i < 0 then acc
    else go (i - 1) (v / base) (acc lor (push ~w 0 (v mod base) lsl (w * (len - 1 - i))))
  in
  finish (go (len - 1) v 0) len

module Key = struct
  type nonrec t = t

  let equal = equal

  let compare = compare

  let hash = hash
end

module Tbl = Hashtbl.Make (Key)
module Set = Stdlib.Set.Make (Key)
module Map = Stdlib.Map.Make (Key)
