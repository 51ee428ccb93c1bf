(* The round schedule every workload shares.

   A run makes [rounds] timed rounds; each rebuilds its mesh from the
   seed and repeats the same work, so all rounds' signatures must agree.
   Set-up time is the median across the rounds; throughput is over the
   fastest measured phase the rounds allow (see [fastest_slices]), and is
   also reported normalised by the host's speed (see [host_elasticity]).
   Round 0 also supplies the exact metrics, the correctness checks and the
   audit.  A traced run times one untraced round and then one traced
   round with the same inputs; their wall difference is the tracing
   overhead. *)

(* What a round leaves behind once its mesh is released. *)
type summary = {
  setup_s : float;
  setup_cpu_s : float;
  measured_s : float;
  measured_cpu_s : float;
  round_s : float;  (** set-up plus measured phase *)
  progress : float array;
      (** wall stamps at fixed points of the measured phase: its start,
          each point the workload marks, and its end *)
  ops : int;  (** operations the measured phase counts for ops_per_s *)
  attempted : int;
  failed : int;
  signature : string;
  exact : Common.metric list;
  checks : (string * bool * string) list;
}

type 'r workload = {
  round : Spans.t -> 'r;  (** one round, recording into the given spans *)
  summarize : 'r -> summary;
  audit : 'r -> int;  (** violations at the quiescent point (1 if it raises) *)
  layers : 'r -> Spans.t -> Common.metric list;  (** after the traced round *)
}

let timing_line i s =
  Common.say
    "round %d: setup %.3f s wall / %.3f s cpu; measured %d ops in %.3f s wall / %.3f s \
     cpu; peak RSS so far %.1f MB"
    i s.setup_s s.setup_cpu_s s.ops s.measured_s s.measured_cpu_s (Common.peak_rss_mb ())

(* The host's speed is the fastest run of the reference job, timed
   twice before every round and twice after the last, each time with no
   mesh alive and the heap compacted.  Like [fastest_slices], it is
   the best the host gave within the run: the host drifts by up to 2x
   over minutes, so the job must be timed across the run's own span. *)
let reference_samples = 2

(* How strongly the serve throughput follows the reference job's time:
   the slope of log ops_per_s on log host_reference_s, pooled over three
   sets of runs of the same code on a shared 2-core VM (24 runs per
   workload), was 0.64 on serve-hot and 0.50 on serve-cold-churn.  With
   exponent 1 the job's own noise dominated whenever the host was calm. *)
let host_elasticity = 0.5

let time_reference refs =
  for _ = 1 to reference_samples do
    Common.Buf.add refs (Common.host_reference_s ())
  done

let fastest_reference refs =
  let times = Common.Buf.to_array refs in
  let best = Array.fold_left Float.min infinity times in
  Common.say "host reference job: %s s; fastest %.4f s"
    (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.4f") times)))
    best;
  best

(* Measured-phase time with the host's noise taken out.  Every round
   does the same work between the same progress stamps, so each slice
   between two stamps is timed as the fastest of its repeats and the
   slices are summed.  Other tenants on a shared host only ever slow a
   slice down, and their bursts last a second or two, so they rarely hit
   the same slice in every round. *)
let fastest_slices sums =
  let n = Array.fold_left (fun a s -> min a (Array.length s.progress)) max_int sums in
  let t = ref 0. in
  for i = 0 to n - 2 do
    t :=
      !t
      +. Array.fold_left
           (fun a s -> Float.min a (s.progress.(i + 1) -. s.progress.(i)))
           infinity sums
  done;
  !t

let run ~rounds ~traced w =
  let timed = if traced then 1 else rounds in
  let refs = Common.Buf.create () in
  let sums = ref [] and violations = ref 0 and peak = ref 0. in
  for i = 0 to timed - 1 do
    time_reference refs;
    let r = w.round (Spans.create ~enabled:false) in
    (* one round's footprint in a fresh process: later rounds reuse a
       heap the earlier meshes fragmented, and the audit is not part of
       the workload *)
    if i = 0 then peak := Common.peak_rss_mb ();
    let s = w.summarize r in
    timing_line i s;
    if i = 0 then violations := w.audit r;
    sums := s :: !sums;
    Gc.compact ()
  done;
  time_reference refs;
  let host_ref_s = fastest_reference refs in
  let sums = Array.of_list (List.rev !sums) in
  let first = sums.(0) in
  let med f = Common.median (Array.map f sums) in
  let fastest_s = fastest_slices sums in
  Common.say "measured phase, fastest of %d rounds in each of %d slices: %.3f s"
    (Array.length sums)
    (Array.length first.progress - 1)
    fastest_s;
  let e2e =
    [
      Common.m "setup_s" "s" (med (fun s -> s.setup_s));
      Common.m "setup_cpu_s" "s" (med (fun s -> s.setup_cpu_s));
      Common.m "ops_per_s" "1/s" (float_of_int first.ops /. fastest_s);
      Common.m "ops_per_s_norm" "1/s"
        (float_of_int first.ops /. fastest_s
        *. Float.pow (host_ref_s /. Common.host_reference_nominal_s) host_elasticity);
      Common.m "host_reference_s" "s" host_ref_s;
      Common.m "measured_cpu_s" "s" (med (fun s -> s.measured_cpu_s));
    ]
    @ first.exact
    @ [
        Common.m ~exact:true "audit_violations" "count" (float_of_int !violations);
        Common.m "peak_rss_mb" "MB" !peak;
      ]
  in
  let layer, traced_sums =
    if not traced then ([], [])
    else begin
      let sp = Spans.create ~enabled:true in
      let r = w.round sp in
      let s = w.summarize r in
      timing_line timed s;
      let base = first.round_s in
      let trace =
        [
          Common.m "trace.overhead_frac" "ratio" ((s.round_s -. base) /. base);
          Common.m "trace.unattributed_frac" "ratio"
            (Spans.unattributed_frac sp ~wall:s.round_s);
        ]
      in
      (w.layers r sp @ trace, [ s ])
    end
  in
  let all = Array.to_list sums @ traced_sums in
  let same = List.for_all (fun s -> String.equal s.signature first.signature) all in
  let later_failures =
    List.concat_map (fun s -> List.filter (fun (_, ok, _) -> not ok) s.checks) (List.tl all)
  in
  let checks =
    first.checks @ later_failures
    @ [
        ( "determinism",
          same,
          Printf.sprintf "%d rounds, signatures %s" (List.length all)
            (if same then "identical" else "DIFFER") );
      ]
  in
  { Common.e2e; layer; attempted = first.attempted; failed = first.failed; checks }
