type t = { messages : int; hops : int; latency : float }

(* A float-only record is stored flat, so [send] updates its cells in
   place; an int field beside the latency would make it a mixed record,
   whose float field boxes on every store. *)
type acc = { mutable msgs : float; mutable hop : float; mutable lat : float }

(* [@alloc_ok]: one accumulator per network or baseline. *)
let[@alloc_ok] make () = { msgs = 0.; hop = 0.; lat = 0. }

let zero a =
  a.msgs <- 0.;
  a.hop <- 0.;
  a.lat <- 0.

let[@inline] send a ~dist =
  a.msgs <- a.msgs +. 1.;
  a.hop <- a.hop +. 1.;
  a.lat <- a.lat +. dist

let[@inline] message a ~dist =
  a.msgs <- a.msgs +. 1.;
  a.lat <- a.lat +. dist

let add a x =
  a.msgs <- a.msgs +. float_of_int x.messages;
  a.hop <- a.hop +. float_of_int x.hops;
  a.lat <- a.lat +. x.latency

(* [@alloc_ok]: a reading is a record, taken per operation, not per
   charge. *)
let[@alloc_ok] snapshot a =
  { messages = int_of_float a.msgs; hops = int_of_float a.hop; latency = a.lat }

let[@alloc_ok] diff a b =
  {
    messages = int_of_float a.msgs - b.messages;
    hops = int_of_float a.hop - b.hops;
    latency = a.lat -. b.latency;
  }

let restore a s =
  a.msgs <- float_of_int s.messages;
  a.hop <- float_of_int s.hops;
  a.lat <- s.latency

let[@alloc_ok] pp ppf t =
  Format.fprintf ppf "msgs=%d hops=%d latency=%.3f" t.messages t.hops t.latency
