type t = { cum : float array }

let create ~s ~n =
  if n <= 0 then invalid_arg "Zipf.create: n must be positive";
  let cum = Array.make n 0. in
  let acc = ref 0. in
  for i = 0 to n - 1 do
    acc := !acc +. (1. /. Float.pow (float_of_int (i + 1)) s);
    cum.(i) <- !acc
  done;
  let total = !acc in
  for i = 0 to n - 1 do
    cum.(i) <- cum.(i) /. total
  done;
  (* guard against rounding: the last cumulative weight must catch any
     draw in [cum.(n-2), 1) *)
  cum.(n - 1) <- 1.;
  { cum }

let sample z rng =
  let u = Rng.float rng 1.0 in
  (* first index whose cumulative weight covers u *)
  let lo = ref 0 and hi = ref (Array.length z.cum - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if z.cum.(mid) > u then hi := mid else lo := mid + 1
  done;
  !lo
