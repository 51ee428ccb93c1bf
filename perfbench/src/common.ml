(* Shared plumbing for the workloads: wall and CPU clocks, peak RSS, a
   growable float buffer for per-call samples, quantiles, and the metric
   records every workload returns. *)

let wall () = Unix.gettimeofday ()

(* Process CPU seconds (user + system, all domains). *)
let cpu () = Sys.time ()

(* Peak resident set (VmHWM) of this process in MB, from
   /proc/self/status. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec go () =
    let line = input_line ic in
    if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
    else go ()
  in
  let kb = Fun.protect ~finally:(fun () -> close_in ic) go in
  float_of_int kb /. 1024.

(* Wall seconds of a fixed reference job that shares no code with the
   program: build a 2^17-entry hash table of boxed values, look keys up
   at random, sort a float array.  Like the program, it allocates, hashes
   and reads memory at random over tens of MB, so it slows down when other
   tenants slow the host down, and by a similar factor. *)
let host_reference_s () =
  let t0 = wall () in
  let n = 1 lsl 17 in
  let x = ref 12345 in
  let next () =
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    !x
  in
  let keys = Array.init n (fun _ -> next ()) in
  let h = Hashtbl.create 16 in
  Array.iteri (fun i k -> Hashtbl.replace h k (float_of_int i, [ i; k ])) keys;
  let acc = ref 0. in
  for _ = 1 to 2 * n do
    match Hashtbl.find_opt h keys.(next () land (n - 1)) with
    | Some (f, _) -> acc := !acc +. f
    | None -> ()
  done;
  let a = Array.map (fun k -> sqrt (float_of_int k)) keys in
  Array.sort Float.compare a;
  ignore (Sys.opaque_identity (!acc, a, h));
  wall () -. t0

(* The reference job's time on an unloaded 2-core x86 host.  Only a scale:
   it turns host-normalised throughput back into operations per second. *)
let host_reference_nominal_s = 0.25

(* Growable float buffer: per-call durations and per-locate samples are
   appended here without allocating a list cell per sample. *)
module Buf = struct
  type t = { mutable a : float array; mutable len : int }

  let create () = { a = Array.make 256 0.; len = 0 }

  let add b x =
    if b.len >= Array.length b.a then begin
      let a = Array.make (2 * Array.length b.a) 0. in
      Array.blit b.a 0 a 0 b.len;
      b.a <- a
    end;
    b.a.(b.len) <- x;
    b.len <- b.len + 1

  let to_array b = Array.sub b.a 0 b.len
end

(* Nearest-rank quantile of an unsorted sample (copied, then sorted);
   0 on an empty sample. *)
let quantile xs p =
  let n = Array.length xs in
  if n = 0 then 0.
  else begin
    let s = Array.copy xs in
    Array.sort Float.compare s;
    let k = int_of_float (Float.ceil (p *. float_of_int n)) - 1 in
    s.(max 0 (min (n - 1) k))
  end

let median xs = quantile xs 0.5

let mean xs =
  let n = Array.length xs in
  if n = 0 then 0. else Array.fold_left ( +. ) 0. xs /. float_of_int n

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* One named measurement.  [exact] marks values that are a pure
   function of the seed and the workload size (the determinism test
   compares them bit for bit); wall-clock and memory readings are not. *)
type metric = { name : string; unit_ : string; value : float; exact : bool }

let m ?(exact = false) name unit_ value = { name; unit_; value; exact }

(* What one workload run hands back to the entry point. *)
type outcome = {
  e2e : metric list;  (** end-to-end metrics (untraced measurement) *)
  layer : metric list;  (** per-layer metrics ([] unless traced) *)
  attempted : int;
  failed : int;
  checks : (string * bool * string) list;
      (** named correctness checks: (name, passed, detail) *)
}

(* The end-to-end metrics BENCHMARK.json gates, in its order; every
   workload reports each of them, and none is 0 on a healthy run. *)
let gated_end_to_end =
  [
    "setup_s";
    "ops_per_s_norm";
    "msgs_per_op";
    "latency_p50_v";
    "latency_p99_v";
    "latency_p999_v";
    "peak_rss_mb";
  ]

let find_metric ms name =
  match List.find_opt (fun x -> String.equal x.name name) ms with
  | Some x -> x.value
  | None -> invalid_arg ("Common.find_metric: " ^ name)

(* Human-readable report line, printed before the final JSON line. *)
let say fmt = Printf.printf (fmt ^^ "\n%!")

let print_metric ~tag x =
  say "%s %-32s %16.6f %s%s" tag x.name x.value x.unit_
    (if x.exact then "  (exact)" else "")
