type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

let empty_summary =
  { n = 0; mean = 0.; stddev = 0.; min = 0.; max = 0.; p50 = 0.; p90 = 0.; p99 = 0. }

let mean = function
  | [] -> 0.
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let percentile xs p =
  match xs with
  | [] -> 0.
  | xs ->
      let a = Array.of_list xs in
      Array.sort Float.compare a;
      let n = Array.length a in
      let idx = int_of_float (ceil (p *. float_of_int n)) - 1 in
      let idx = max 0 (min (n - 1) idx) in
      a.(idx)

let summarize xs =
  match xs with
  | [] -> empty_summary
  | xs ->
      let n = List.length xs in
      let m = mean xs in
      let var =
        List.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0. xs
        /. float_of_int n
      in
      {
        n;
        mean = m;
        stddev = sqrt var;
        min = List.fold_left min infinity xs;
        max = List.fold_left max neg_infinity xs;
        p50 = percentile xs 0.5;
        p90 = percentile xs 0.9;
        p99 = percentile xs 0.99;
      }

let gini xs =
  match xs with
  | [] -> 0.
  | xs ->
      let a = Array.of_list xs in
      Array.sort Float.compare a;
      let n = Array.length a in
      let total = Array.fold_left ( +. ) 0. a in
      if total <= 0. then 0.
      else begin
        let weighted = ref 0. in
        for i = 0 to n - 1 do
          weighted := !weighted +. (float_of_int (i + 1) *. a.(i))
        done;
        let nf = float_of_int n in
        ((2. *. !weighted) /. (nf *. total)) -. ((nf +. 1.) /. nf)
      end

let linear_fit pts =
  let n = float_of_int (List.length pts) in
  if n < 2. then (0., 0.)
  else begin
    let sx = List.fold_left (fun a (x, _) -> a +. x) 0. pts in
    let sy = List.fold_left (fun a (_, y) -> a +. y) 0. pts in
    let sxx = List.fold_left (fun a (x, _) -> a +. (x *. x)) 0. pts in
    let sxy = List.fold_left (fun a (x, y) -> a +. (x *. y)) 0. pts in
    let denom = (n *. sxx) -. (sx *. sx) in
    if abs_float denom < 1e-12 then (0., sy /. n)
    else begin
      let slope = ((n *. sxy) -. (sx *. sy)) /. denom in
      (slope, (sy -. (slope *. sx)) /. n)
    end
  end

let fmt_float x =
  if Float.is_integer x && abs_float x < 1e7 then Printf.sprintf "%.0f" x
  else if abs_float x >= 1000. then Printf.sprintf "%.0f" x
  else if abs_float x >= 10. then Printf.sprintf "%.1f" x
  else Printf.sprintf "%.3f" x

let pp_summary ppf s =
  Format.fprintf ppf "n=%d mean=%s sd=%s min=%s p50=%s p90=%s p99=%s max=%s"
    s.n (fmt_float s.mean) (fmt_float s.stddev) (fmt_float s.min)
    (fmt_float s.p50) (fmt_float s.p90) (fmt_float s.p99) (fmt_float s.max)

module Table = struct
  type t = {
    title : string;
    columns : string list;
    mutable rows : string list list; (* stored reversed *)
  }

  let create ~title ~columns = { title; columns; rows = [] }

  let add_row t row =
    if List.length row <> List.length t.columns then
      invalid_arg "Stats.Table.add_row: wrong arity";
    t.rows <- row :: t.rows

  let render t =
    let rows = List.rev t.rows in
    let all = t.columns :: rows in
    let ncols = List.length t.columns in
    let widths = Array.make ncols 0 in
    let note_widths row =
      List.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell)) row
    in
    List.iter note_widths all;
    let buf = Buffer.create 256 in
    let pad i s = s ^ String.make (widths.(i) - String.length s) ' ' in
    let emit_row row =
      Buffer.add_string buf "| ";
      List.iteri
        (fun i cell ->
          Buffer.add_string buf (pad i cell);
          Buffer.add_string buf " | ")
        row;
      (* trim trailing space *)
      let len = Buffer.length buf in
      Buffer.truncate buf (len - 1);
      Buffer.add_char buf '\n'
    in
    let rule () =
      Buffer.add_char buf '+';
      Array.iter (fun w -> Buffer.add_string buf (String.make (w + 2) '-'); Buffer.add_char buf '+') widths;
      Buffer.add_char buf '\n'
    in
    Buffer.add_string buf ("== " ^ t.title ^ " ==\n");
    rule ();
    emit_row t.columns;
    rule ();
    List.iter emit_row rows;
    rule ();
    Buffer.contents buf

  let print t = print_string (render t)

  let title t = t.title

  let to_csv t =
    let quote cell =
      if String.exists (fun c -> c = ',' || c = '"' || c = '\n') cell then
        "\"" ^ String.concat "\"\"" (String.split_on_char '"' cell) ^ "\""
      else cell
    in
    let line row = String.concat "," (List.map quote row) in
    String.concat "\n" (line t.columns :: List.map line (List.rev t.rows)) ^ "\n"
end

module Tally = struct
  type t = {
    mutable hits : int;
    mutable misses : int;
    mutable stale : int;
    mutable fills : int;
    mutable evicts : int;
    mutable recoveries : int;
    mutable hint_fills : int;
    mutable hint_hits : int;
  }

  let create () =
    { hits = 0; misses = 0; stale = 0; fills = 0; evicts = 0; recoveries = 0;
      hint_fills = 0; hint_hits = 0 }

  let merge ~into t =
    into.hits <- into.hits + t.hits;
    into.misses <- into.misses + t.misses;
    into.stale <- into.stale + t.stale;
    into.fills <- into.fills + t.fills;
    into.evicts <- into.evicts + t.evicts;
    into.recoveries <- into.recoveries + t.recoveries;
    into.hint_fills <- into.hint_fills + t.hint_fills;
    into.hint_hits <- into.hint_hits + t.hint_hits

  let lookups t = t.hits + t.misses + t.stale

  let hit_rate t =
    let l = lookups t in
    if l = 0 then 0. else float_of_int t.hits /. float_of_int l
end

(* HDR-style log-bucketed latency histogram (serve tier).

   Values are hashed to a bucket by [frexp]: the exponent selects an
   octave, the top 5 mantissa bits select one of 32 sub-buckets, so the
   relative quantile error is bounded by 1/64 (~1.6%) at any magnitude.
   Everything is plain int counters over a fixed 2048-slot array:
   [add] allocates nothing, [merge] is element-wise addition (assoc-
   commutative, so per-shard histograms merged in a fixed shard order
   are bit-identical whatever the domain count), and [counts] is the
   whole determinism signature. *)
module Hist = struct
  let sub_bits = 5
  let sub = 1 lsl sub_bits (* 32 sub-buckets per octave *)
  let e_min = -32 (* values below ~2.3e-10 clamp to bucket 0 *)
  let e_max = 31 (* values >= 2^31 clamp to the last bucket *)
  let buckets = (e_max - e_min + 1) * sub

  type h = {
    counts : int array;
    mutable total : int;
    acc : float array;
        (* [| sum; min; max |]: float-array cells, so [add] stores
           unboxed floats where mutable float fields of this mixed record
           would box each write *)
  }

  let i_sum = 0
  let i_min = 1
  let i_max = 2

  let create () =
    { counts = Array.make buckets 0; total = 0;
      acc = [| 0.; infinity; neg_infinity |] }

  (* Exponent and top [sub_bits] mantissa bits straight from the IEEE
     bits: for a normal [v = 1.f * 2^(E-1023)], [Float.frexp] answers
     [m = 1.f / 2] and [e = E - 1022], so [(m - 0.5) * 2 * sub] is the
     top [sub_bits] bits of [f].  Subnormals have [E = 0], below [e_min],
     and land in bucket 0 as before.  No tuple, no boxed float. *)
  let[@inline] bucket_of v =
    if v <= 0. then 0
    else begin
      let bits = Int64.to_int (Int64.bits_of_float v) in
      let e = ((bits lsr 52) land 0x7ff) - 1022 in
      let si = (bits lsr (52 - sub_bits)) land (sub - 1) in
      if e < e_min then 0
      else if e > e_max then buckets - 1
      else ((e - e_min) * sub) + si
    end

  (* lower edge of a bucket: the conservative quantile representative *)
  let value_of b =
    let e = (b / sub) + e_min and si = b mod sub in
    Float.ldexp (0.5 +. (float_of_int si /. float_of_int (2 * sub))) e

  let[@inline] add t v =
    let b = bucket_of v in
    t.counts.(b) <- t.counts.(b) + 1;
    t.total <- t.total + 1;
    let a = t.acc in
    a.(i_sum) <- a.(i_sum) +. v;
    if v < a.(i_min) then a.(i_min) <- v;
    if v > a.(i_max) then a.(i_max) <- v

  let merge ~into t =
    for b = 0 to buckets - 1 do
      into.counts.(b) <- into.counts.(b) + t.counts.(b)
    done;
    into.total <- into.total + t.total;
    let a = into.acc in
    a.(i_sum) <- a.(i_sum) +. t.acc.(i_sum);
    if t.acc.(i_min) < a.(i_min) then a.(i_min) <- t.acc.(i_min);
    if t.acc.(i_max) > a.(i_max) then a.(i_max) <- t.acc.(i_max)

  let total t = t.total

  let mean t =
    if t.total = 0 then 0. else t.acc.(i_sum) /. float_of_int t.total

  let min_value t = if t.total = 0 then 0. else t.acc.(i_min)

  let max_value t = if t.total = 0 then 0. else t.acc.(i_max)

  (* nearest-rank on the cumulative bucket counts *)
  let quantile t p =
    if t.total = 0 then 0.
    else begin
      let target = int_of_float (ceil (p *. float_of_int t.total)) in
      let target = if target < 1 then 1 else target in
      let rec walk b seen =
        if b >= buckets then t.acc.(i_max)
        else
          let seen = seen + t.counts.(b) in
          if seen >= target then value_of b else walk (b + 1) seen
      in
      walk 0 0
    end

  let counts t = Array.copy t.counts

  let equal a b =
    a.total = b.total
    && (let rec eq b' =
          b' >= buckets || (a.counts.(b') = b.counts.(b') && eq (b' + 1))
        in
        eq 0)
end
