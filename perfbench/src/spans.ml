(* In-memory span recorder for the traced run.

   A span is a named wall interval recorded by the benchmark around one
   call into a layer of the program; its parent is the span that was open
   when it started, so spans nest strictly.  A span's self time is its
   duration minus its direct children's durations.  Everything is kept in
   flat growable arrays and only aggregated after the run.  A disabled
   recorder records nothing: [with_] is then a plain call. *)

type t = {
  enabled : bool;
  mutable names : string array;
  mutable t0 : float array;
  mutable t1 : float array;
  mutable parent : int array;
  mutable len : int;
  mutable cur : int;  (* innermost open span, -1 at top level *)
}

let create ~enabled =
  let c = if enabled then 1024 else 0 in
  {
    enabled;
    names = Array.make c "";
    t0 = Array.make c 0.;
    t1 = Array.make c 0.;
    parent = Array.make c (-1);
    len = 0;
    cur = -1;
  }

let grow t =
  let c = max 1024 (2 * Array.length t.t0) in
  let ext a fill =
    let b = Array.make c fill in
    Array.blit a 0 b 0 t.len;
    b
  in
  t.names <- ext t.names "";
  t.t0 <- ext t.t0 0.;
  t.t1 <- ext t.t1 0.;
  t.parent <- ext t.parent (-1)

let push t name ~t0 ~t1 =
  if t.len >= Array.length t.t0 then grow t;
  let id = t.len in
  t.names.(id) <- name;
  t.t0.(id) <- t0;
  t.t1.(id) <- t1;
  t.parent.(id) <- t.cur;
  t.len <- id + 1;
  id

let with_ t name f =
  if not t.enabled then f ()
  else begin
    let id = push t name ~t0:(Common.wall ()) ~t1:0. in
    t.cur <- id;
    let close () =
      t.t1.(id) <- Common.wall ();
      t.cur <- t.parent.(id)
    in
    match f () with
    | v ->
        close ();
        v
    | exception e ->
        close ();
        raise e
  end

(* A span whose interval was measured elsewhere (the serve engine's wall
   stamps), recorded as a child of the innermost open span. *)
let add_closed t name ~t0 ~t1 =
  if t.enabled then ignore (push t name ~t0 ~t1 : int)

let self_times t =
  let self = Array.init t.len (fun i -> t.t1.(i) -. t.t0.(i)) in
  for i = 0 to t.len - 1 do
    let p = t.parent.(i) in
    if p >= 0 then self.(p) <- self.(p) -. (t.t1.(i) -. t.t0.(i))
  done;
  self

(* Per-name aggregate: span count, total self time, and every span's
   full duration (for per-call quantiles). *)
type agg = { calls : int; self_s : float; durations : float array }

let aggregate t =
  let self = self_times t in
  let tbl = Hashtbl.create 16 in
  for i = 0 to t.len - 1 do
    let name = t.names.(i) in
    let calls, s, d =
      match Hashtbl.find_opt tbl name with
      | Some x -> x
      | None -> (0, 0., Common.Buf.create ())
    in
    Common.Buf.add d (t.t1.(i) -. t.t0.(i));
    Hashtbl.replace tbl name (calls + 1, s +. self.(i), d)
  done;
  Hashtbl.fold
    (fun name (calls, self_s, d) acc ->
      (name, { calls; self_s; durations = Common.Buf.to_array d }) :: acc)
    tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let find aggs name =
  match List.assoc_opt name aggs with
  | Some a -> a
  | None -> { calls = 0; self_s = 0.; durations = [||] }

let total_self t = Array.fold_left ( +. ) 0. (self_times t)

(* Share of [wall] that no span's self time covers: the benchmark's own
   glue between calls into the program. *)
let unattributed_frac t ~wall =
  if wall <= 0. then 0. else (wall -. total_self t) /. wall
