(* Point metrics carry a uniform-grid spatial index so that ball queries
   cost O(|ball|) instead of O(n): points are bucketed into ~sqrt(n) x
   sqrt(n) cells, and a query visits only the cells intersecting the query
   disc.  Matrix/closure metrics have no geometry to index and keep the
   brute-force scans; the [*_brute] variants stay exported as oracles for
   the grid paths (test/test_scale.ml checks exact agreement, including
   tie-breaks).

   The index is packed CSR-style — one offsets array plus one flat
   point-index array — instead of an [int list array]: at 10^6 points the
   per-cell cons cells alone were ~24 MB and a cache miss per candidate.
   Coordinates live in the same unboxed float arrays [dist] reads, so the
   index adds ~2 ints per point, nothing more. *)

type spatial = {
  torus : float option;  (* [Some side]: coordinates wrap modulo [side] *)
  nx : int;
  ny : int;
  cellw : float;
  cellh : float;
  minx : float;
  miny : float;
  cover : float;  (* radius at which a ball certainly spans every point *)
  cell_off : int array;  (* CSR offsets, row-major, length nx*ny + 1 *)
  cell_pts : int array;  (* point indices grouped by cell, ascending within *)
}

(* Point coordinates in unboxed float columns, read by [dist] and the
   grid alike; the index is rebuilt in place ({!rescale_index}). *)
type points = {
  xs : float array;
  ys : float array;
  mutable grid : spatial option;
}

(* The distance kernel.  Every constructor the simulator's hot paths use
   is a case of one match, so [dist] inlines to its use site and the
   float it returns stays in a register; only [Fn] (the ring and the
   drifting torus) is a closure call. *)
type t =
  | Plane of points
  | Torus of { pts : points; side : float }
  | Matrix of float array array
  | Fn of { size : int; desc : string; f : int -> int -> float }

(* --- grid construction --- *)

let clamp lo hi v = if v < lo then lo else if v > hi then hi else v

let cell_ix s x = clamp 0 (s.nx - 1) (int_of_float (floor ((x -. s.minx) /. s.cellw)))

let cell_iy s y = clamp 0 (s.ny - 1) (int_of_float (floor ((y -. s.miny) /. s.cellh)))

(* Grid sized for ~[occupancy] points per cell; the default (1) matches the
   classic sqrt(n) x sqrt(n) layout. *)
let[@alloc_ok] ideal_per_axis ?(occupancy = 1.) n =
  max 1 (int_of_float (sqrt (float_of_int n /. max occupancy 1e-9)))

(* [@alloc_ok]: once per metric or index rebuild. *)
let[@alloc_ok] build_spatial ?torus ?per_axis ~xs ~ys () =
  let n = Array.length xs in
  if n = 0 then None
  else begin
    let minx, miny, maxx, maxy =
      match torus with
      | Some side -> (0., 0., side, side)
      | None ->
          let x0 = ref infinity and y0 = ref infinity in
          let x1 = ref neg_infinity and y1 = ref neg_infinity in
          for p = 0 to n - 1 do
            if xs.(p) < !x0 then x0 := xs.(p);
            if xs.(p) > !x1 then x1 := xs.(p);
            if ys.(p) < !y0 then y0 := ys.(p);
            if ys.(p) > !y1 then y1 := ys.(p)
          done;
          (!x0, !y0, !x1, !y1)
    in
    let per_axis =
      match per_axis with Some k -> max 1 k | None -> ideal_per_axis n
    in
    let extent lo hi = max (hi -. lo) 1e-9 in
    let w = extent minx maxx and h = extent miny maxy in
    let ncells = per_axis * per_axis in
    let s =
      {
        torus;
        nx = per_axis;
        ny = per_axis;
        cellw = w /. float_of_int per_axis;
        cellh = h /. float_of_int per_axis;
        minx;
        miny;
        (* torus distances never exceed side (even side/sqrt(2) would do);
           planar distances never exceed the bounding-box semi-perimeter *)
        cover = (match torus with Some side -> side | None -> w +. h);
        cell_off = Array.make (ncells + 1) 0;
        cell_pts = Array.make n 0;
      }
    in
    (* counting sort into CSR: count, prefix-sum, then fill in ascending
       point order so each cell's slice ends ascending *)
    let counts = Array.make ncells 0 in
    for p = 0 to n - 1 do
      let c = (cell_iy s ys.(p) * s.nx) + cell_ix s xs.(p) in
      counts.(c) <- counts.(c) + 1
    done;
    let off = ref 0 in
    for c = 0 to ncells - 1 do
      s.cell_off.(c) <- !off;
      off := !off + counts.(c)
    done;
    s.cell_off.(ncells) <- !off;
    let cursor = Array.copy s.cell_off in
    for p = 0 to n - 1 do
      let c = (cell_iy s ys.(p) * s.nx) + cell_ix s xs.(p) in
      s.cell_pts.(cursor.(c)) <- p;
      cursor.(c) <- cursor.(c) + 1
    done;
    Some s
  end

(* Cell indices along one axis covering the coordinate interval
   [c - r, c + r]; wraps on the torus, clamps on the plane.  The count is
   capped at the axis size so no cell is visited twice.
   [@alloc_ok]: ball queries are experiment-side, not per message. *)
let[@alloc_ok] axis_range ~torus ~lo:axis_min ~cellsz ~ncells c r =
  let i0f = floor ((c -. r -. axis_min) /. cellsz) in
  let i1f = floor ((c +. r -. axis_min) /. cellsz) in
  match torus with
  | None ->
      let i0 = clamp 0 (ncells - 1) (int_of_float i0f) in
      let i1 = clamp 0 (ncells - 1) (int_of_float i1f) in
      List.init (i1 - i0 + 1) (fun k -> i0 + k)
  | Some _ ->
      let i0 = int_of_float i0f in
      let span = int_of_float i1f - i0 + 1 in
      let count = min ncells (max 1 span) in
      List.init count (fun k ->
          let i = (i0 + k) mod ncells in
          if i < 0 then i + ncells else i)

(* Visit every point index whose cell intersects the axis-aligned square of
   half-width [r] around point [p]: a superset of the ball of radius [r] in
   both the planar and wrapped metrics.  Cells are visited at most once
   (axis ranges are duplicate-free), so each point is seen at most once.
   [@alloc_ok]: as [axis_range]. *)
let[@alloc_ok] iter_candidates pts s p r f =
  let x = pts.xs.(p) and y = pts.ys.(p) in
  let xrange =
    axis_range ~torus:s.torus ~lo:s.minx ~cellsz:s.cellw ~ncells:s.nx x r
  in
  let yrange =
    axis_range ~torus:s.torus ~lo:s.miny ~cellsz:s.cellh ~ncells:s.ny y r
  in
  List.iter
    (fun iy ->
      List.iter
        (fun ix ->
          let c = (iy * s.nx) + ix in
          for i = s.cell_off.(c) to s.cell_off.(c + 1) - 1 do
            f s.cell_pts.(i)
          done)
        xrange)
    yrange

(* --- constructors --- *)

(* [@alloc_ok]: constructors run once per metric. *)
let[@alloc_ok] make ~size ~desc ~dist = Fn { size; desc; f = dist }

let[@alloc_ok] of_points pts =
  let xs = Array.map fst pts and ys = Array.map snd pts in
  Plane { xs; ys; grid = build_spatial ~xs ~ys () }

let[@alloc_ok] of_points_torus ~side pts =
  let xs = Array.map fst pts and ys = Array.map snd pts in
  Torus { pts = { xs; ys; grid = build_spatial ~torus:side ~xs ~ys () }; side }

let[@alloc_ok] of_matrix m = Matrix m

let size = function
  | Plane p | Torus { pts = p; _ } -> Array.length p.xs
  | Matrix rows -> Array.length rows
  | Fn { size; _ } -> size

let desc = function
  | Plane _ -> "euclidean-2d"
  | Torus _ -> "euclidean-torus"
  | Matrix _ -> "matrix"
  | Fn { desc; _ } -> desc

(* The shorter way round one axis of a [side]-wide torus.  The [if] is
   Stdlib's [min] written for floats: the same answer, NaN included,
   without the polymorphic compare. *)
let[@inline] wrap side d =
  let d = abs_float d in
  let e = side -. d in
  if d <= e then d else e

(* The kernel.  [@inline] carries the match to every call site, where the
   result feeds a subtraction, a comparison or an unboxed float-array
   cell, so no case but [Fn] boxes it.  Every pinned mesh, signature and
   table depends on these bits: keep the subtractions in this order
   (test_simnet checks them against the formulas written out). *)
let[@inline] dist m i j =
  match m with
  | Plane { xs; ys; _ } ->
      let dx = xs.(i) -. xs.(j) and dy = ys.(i) -. ys.(j) in
      sqrt ((dx *. dx) +. (dy *. dy))
  | Torus { pts = { xs; ys; _ }; side } ->
      let dx = wrap side (xs.(i) -. xs.(j)) and dy = wrap side (ys.(i) -. ys.(j)) in
      sqrt ((dx *. dx) +. (dy *. dy))
  | Matrix rows -> rows.(i).(j)
  | Fn { f; _ } -> f i j

let torus_side = function Torus { side; _ } -> Some side | _ -> None

let indexed = function
  | Plane { grid = Some _; _ } | Torus { pts = { grid = Some _; _ }; _ } -> true
  | _ -> false

(* --- index maintenance --- *)

let index_granularity = function
  | Plane { grid = Some s; _ } | Torus { pts = { grid = Some s; _ }; _ } -> Some s.nx
  | _ -> None

(* [@alloc_ok]: index rebuilds are experiment set-up. *)
let[@alloc_ok] set_index_granularity m ~per_axis =
  match m with
  | Plane ({ grid = Some _; _ } as p)
  | Torus { pts = { grid = Some _; _ } as p; _ } ->
      p.grid <- build_spatial ?torus:(torus_side m) ~per_axis ~xs:p.xs ~ys:p.ys ()
  | _ -> ()

let[@alloc_ok] rescale_index m =
  match m with
  | Plane ({ grid = Some s; _ } as p)
  | Torus { pts = { grid = Some s; _ } as p; _ } ->
      let ideal = ideal_per_axis (Array.length p.xs) in
      (* A 2x-off axis count means 4x-off cell occupancy: candidate scans
         degrade toward linear (too coarse) or cell walks dominate (too
         fine).  Within 2x the grid is fine — rebuilding on every call
         would thrash. *)
      if s.nx * 2 <= ideal || s.nx >= ideal * 2 then begin
        p.grid <-
          build_spatial ?torus:(torus_side m) ~per_axis:ideal ~xs:p.xs ~ys:p.ys ();
        true
      end
      else false
  | _ -> false

(* --- brute-force oracles (also the fallback for non-point metrics) --- *)

(* [@alloc_ok]: oracles and the fallback for unindexed metrics,
   experiment-side. *)
let[@alloc_ok] ball_count_brute m p r =
  let c = ref 0 in
  for q = 0 to size m - 1 do
    if dist m p q <= r then incr c
  done;
  !c

let[@alloc_ok] nearest_other_brute m p =
  let best = ref None in
  let best_d = ref infinity in
  for q = 0 to size m - 1 do
    if q <> p then begin
      let d = dist m p q in
      if d < !best_d then begin
        best := Some q;
        best_d := d
      end
    end
  done;
  !best

(* --- grid-accelerated queries --- *)

(* [@alloc_ok]: the candidate walk's closure; experiment-side. *)
let[@alloc_ok] ball_count m p r =
  match m with
  | Plane ({ grid = Some s; _ } as pts)
  | Torus { pts = { grid = Some s; _ } as pts; _ } ->
      let c = ref 0 in
      iter_candidates pts s p r (fun q -> if dist m p q <= r then incr c);
      !c
  | _ -> ball_count_brute m p r

(* Radius-doubling around the grid cell size: once a ball is non-empty it
   contains the true nearest point, so total work is O(|final ball|).
   [@alloc_ok]: as [ball_count]. *)
let[@alloc_ok] nearest_other m p =
  match m with
  | Plane ({ grid = Some s; _ } as pts)
  | Torus { pts = { grid = Some s; _ } as pts; _ } ->
      if size m <= 1 then None
      else begin
        let pick r =
          (* lexicographic (distance, index) minimum = the brute scan's
             ascending-index strict-< tie-break *)
          let best = ref (-1) and best_d = ref infinity in
          iter_candidates pts s p r (fun q ->
              if q <> p then begin
                let d = dist m p q in
                if d <= r then
                  if d < !best_d || (d = !best_d && q < !best) then begin
                    best := q;
                    best_d := d
                  end
              end);
          if !best < 0 then None else Some !best
        in
        let rec go r =
          if r >= s.cover then pick s.cover
          else match pick r with Some q -> Some q | None -> go (2. *. r)
        in
        go (0.5 *. min s.cellw s.cellh)
      end
  | _ -> nearest_other_brute m p

(* [@alloc_ok]: experiment-side; [max] boxes its float arguments. *)
let[@alloc_ok] diameter m ~sample ~rng =
  let n = size m in
  if n <= 1 then 0.
  else if n <= 256 then begin
    let d = ref 0. in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        d := max !d (dist m i j)
      done
    done;
    !d
  end
  else begin
    let d = ref 0. in
    for _ = 1 to sample do
      let i = Rng.int rng n and j = Rng.int rng n in
      d := max !d (dist m i j)
    done;
    !d
  end

let[@alloc_ok] expansion_estimate m ~samples ~rng =
  let n = size m in
  let worst = ref 1. in
  for _ = 1 to samples do
    let p = Rng.int rng n in
    let q = Rng.int rng n in
    let r = dist m p q in
    if r > 0. then begin
      let big = ball_count m p (2. *. r) in
      let small = ball_count m p r in
      (* Equation 1 exempts balls already covering the whole space. *)
      if big < n && small > 0 then
        worst := max !worst (float_of_int big /. float_of_int small)
    end
  done;
  !worst

let word = 8

(* Resident-size estimate: coordinate arrays (shared with [dist]) plus
   the CSR index.  Matrix metrics count their full matrix. *)
let approx_bytes = function
  | Plane { xs; grid = Some s; _ } | Torus { pts = { xs; grid = Some s; _ }; _ } ->
      (4 * word)
      + (2 * (Array.length xs + 1) * word)
      + ((Array.length s.cell_off + 1) * word)
      + ((Array.length s.cell_pts + 1) * word)
      + (13 * word)
  | Matrix rows ->
      let n = Array.length rows in
      (* n rows of n unboxed floats plus the spine *)
      (n * (n + 1) * word) + ((n + 1) * word) + (4 * word)
  | Plane _ | Torus _ | Fn _ -> 4 * word
