type t = {
  base : int;
  id_digits : int;
  redundancy : int;
  k_list : int;
  k_fixed : bool;
  root_set_size : int;
  pointer_ttl : float;
  republish_interval : float;
  digit_bits : int;
  expected_nodes : int;
}

let bits_of_base base =
  let rec count v acc = if v <= 1 then acc else count (v lsr 1) (acc + 1) in
  count base 0

let default =
  {
    base = 16;
    id_digits = 8;
    redundancy = 3;
    k_list = 16;
    k_fixed = false;
    root_set_size = 1;
    pointer_ttl = 300.;
    republish_interval = 100.;
    digit_bits = 4;
    expected_nodes = 0;
  }

let normalize t = { t with digit_bits = bits_of_base t.base }

let is_power_of_two x = x > 0 && x land (x - 1) = 0

let validate t =
  if t.base < 2 || not (is_power_of_two t.base) then
    Error "base must be a power of two >= 2"
  else if t.id_digits < 1 then Error "id_digits must be >= 1"
  else if bits_of_base t.base > Node_id.field_bits t.id_digits then
    (* an ID is one int: 56 bits shared by the digits, at most 5 each *)
    Error
      (Printf.sprintf
         "base %d x %d digits does not fit one word: %d digits leave %d bits \
          per digit (at most 5, and 56 in all), base %d needs %d"
         t.base t.id_digits t.id_digits
         (Node_id.field_bits t.id_digits)
         t.base (bits_of_base t.base))
  else if t.redundancy < 1 then Error "redundancy must be >= 1"
  else if t.k_list < 1 then Error "k_list must be >= 1"
  else if t.root_set_size < 1 || t.root_set_size > Pointer_store.max_root_idx
  then
    (* the last root index a pointer record packs is reserved for
       locality branches *)
    Error
      (Printf.sprintf "root_set_size must be in 1..%d" Pointer_store.max_root_idx)
  else if t.pointer_ttl <= 0. then Error "pointer_ttl must be positive"
  else if t.expected_nodes < 0 then Error "expected_nodes must be >= 0"
  else Ok ()

(* Directory-table capacity hint: the expected population when declared,
   otherwise a small default that keeps ad-hoc networks cheap.  Stdlib
   hashtables resize by doubling, so any positive hint only trims the
   rehash cascade — it never changes observable behavior. *)
let table_capacity ?(floor = 64) t =
  if t.expected_nodes > 0 then max floor t.expected_nodes else floor

let scaled_k t ~n =
  if t.k_fixed then t.k_list
  else begin
    let log2n = int_of_float (ceil (log (float_of_int (max 2 n)) /. log 2.)) in
    max t.k_list (4 * log2n)
  end

let pp ppf t =
  Format.fprintf ppf "b=%d digits=%d R=%d k=%d roots=%d ttl=%.0f" t.base
    t.id_digits t.redundancy t.k_list t.root_set_size t.pointer_ttl
