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
   Coordinates live in the same unboxed float arrays the [dist] closure
   reads, so the index adds ~2 ints per point, nothing more. *)

type spatial = {
  xs : float array;  (* shared with the [dist] closure, never copied *)
  ys : float array;
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

type t = {
  size : int;
  desc : string;
  dist : int -> int -> float;
  mutable spatial : spatial option;
      (* mutable so the index can be rebuilt when its density assumption
         goes stale ({!rescale_index}); queries never mutate it *)
}

(* --- grid construction --- *)

let clamp lo hi v = if v < lo then lo else if v > hi then hi else v

let cell_ix s x = clamp 0 (s.nx - 1) (int_of_float (floor ((x -. s.minx) /. s.cellw)))

let cell_iy s y = clamp 0 (s.ny - 1) (int_of_float (floor ((y -. s.miny) /. s.cellh)))

(* Grid sized for ~[occupancy] points per cell; the default (1) matches the
   classic sqrt(n) x sqrt(n) layout. *)
let ideal_per_axis ?(occupancy = 1.) n =
  max 1 (int_of_float (sqrt (float_of_int n /. max occupancy 1e-9)))

let build_spatial ?torus ?per_axis ~xs ~ys () =
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
        xs;
        ys;
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
   capped at the axis size so no cell is visited twice. *)
let axis_range ~torus ~lo:axis_min ~cellsz ~ncells c r =
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
   (axis ranges are duplicate-free), so each point is seen at most once. *)
let iter_candidates s p r f =
  let x = s.xs.(p) and y = s.ys.(p) in
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

let make ~size ~desc ~dist = { size; desc; dist; spatial = None }

(* Coordinates live in flat float arrays (unboxed) rather than the tuple
   array: [dist] sits under every hop charge, and four boxed-float derefs
   per call show up.  Same subtractions in the same order — bit-identical
   results. *)
let of_points pts =
  let xs = Array.map fst pts and ys = Array.map snd pts in
  let dist i j =
    let dx = xs.(i) -. xs.(j) and dy = ys.(i) -. ys.(j) in
    sqrt ((dx *. dx) +. (dy *. dy))
  in
  {
    size = Array.length pts;
    desc = "euclidean-2d";
    dist;
    spatial = build_spatial ~xs ~ys ();
  }

let of_points_torus ~side pts =
  let wrap d =
    let d = abs_float d in
    min d (side -. d)
  in
  let xs = Array.map fst pts and ys = Array.map snd pts in
  let dist i j =
    let dx = wrap (xs.(i) -. xs.(j)) and dy = wrap (ys.(i) -. ys.(j)) in
    sqrt ((dx *. dx) +. (dy *. dy))
  in
  {
    size = Array.length pts;
    desc = "euclidean-torus";
    dist;
    spatial = build_spatial ~torus:side ~xs ~ys ();
  }

let of_matrix m =
  let dist i j = m.(i).(j) in
  { size = Array.length m; desc = "matrix"; dist; spatial = None }

let size m = m.size

let desc m = m.desc

let dist m i j = m.dist i j

let indexed m = Option.is_some m.spatial

(* --- index maintenance --- *)

let index_granularity m =
  match m.spatial with None -> None | Some s -> Some s.nx

let set_index_granularity m ~per_axis =
  match m.spatial with
  | None -> ()
  | Some s ->
      m.spatial <- build_spatial ?torus:s.torus ~per_axis ~xs:s.xs ~ys:s.ys ()

let rescale_index m =
  match m.spatial with
  | None -> false
  | Some s ->
      let ideal = ideal_per_axis m.size in
      (* A 2x-off axis count means 4x-off cell occupancy: candidate scans
         degrade toward linear (too coarse) or cell walks dominate (too
         fine).  Within 2x the grid is fine — rebuilding on every call
         would thrash. *)
      if s.nx * 2 <= ideal || s.nx >= ideal * 2 then begin
        m.spatial <-
          build_spatial ?torus:s.torus ~per_axis:ideal ~xs:s.xs ~ys:s.ys ();
        true
      end
      else false

(* --- brute-force oracles (also the fallback for non-point metrics) --- *)

let ball_count_brute m p r =
  let c = ref 0 in
  for q = 0 to m.size - 1 do
    if m.dist p q <= r then incr c
  done;
  !c

let nearest_other_brute m p =
  let best = ref None in
  let best_d = ref infinity in
  for q = 0 to m.size - 1 do
    if q <> p then begin
      let d = m.dist p q in
      if d < !best_d then begin
        best := Some q;
        best_d := d
      end
    end
  done;
  !best

(* --- grid-accelerated queries --- *)

let ball_count m p r =
  match m.spatial with
  | None -> ball_count_brute m p r
  | Some s ->
      let c = ref 0 in
      iter_candidates s p r (fun q -> if m.dist p q <= r then incr c);
      !c

(* Radius-doubling around the grid cell size: once a ball is non-empty it
   contains the true nearest point, so total work is O(|final ball|). *)
let nearest_other m p =
  match m.spatial with
  | None -> nearest_other_brute m p
  | Some s ->
      if m.size <= 1 then None
      else begin
        let pick r =
          (* lexicographic (distance, index) minimum = the brute scan's
             ascending-index strict-< tie-break *)
          let best = ref (-1) and best_d = ref infinity in
          iter_candidates s p r (fun q ->
              if q <> p then begin
                let d = m.dist p q in
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

let diameter m ~sample ~rng =
  if m.size <= 1 then 0.
  else if m.size <= 256 then begin
    let d = ref 0. in
    for i = 0 to m.size - 1 do
      for j = i + 1 to m.size - 1 do
        d := max !d (m.dist i j)
      done
    done;
    !d
  end
  else begin
    let d = ref 0. in
    for _ = 1 to sample do
      let i = Rng.int rng m.size and j = Rng.int rng m.size in
      d := max !d (m.dist i j)
    done;
    !d
  end

let expansion_estimate m ~samples ~rng =
  let worst = ref 1. in
  for _ = 1 to samples do
    let p = Rng.int rng m.size in
    let q = Rng.int rng m.size in
    let r = m.dist p q in
    if r > 0. then begin
      let big = ball_count m p (2. *. r) in
      let small = ball_count m p r in
      (* Equation 1 exempts balls already covering the whole space. *)
      if big < m.size && small > 0 then
        worst := max !worst (float_of_int big /. float_of_int small)
    end
  done;
  !worst

let word = 8

(* Resident-size estimate: coordinate arrays (shared with the dist
   closure) plus the CSR index.  Matrix metrics count their full matrix. *)
let approx_bytes m =
  match m.spatial with
  | None ->
      if m.desc = "matrix" then
        (* n rows of n unboxed floats plus the spine *)
        (m.size * (m.size + 1) * word) + ((m.size + 1) * word) + (4 * word)
      else 4 * word
  | Some s ->
      (4 * word)
      + (2 * (Array.length s.xs + 1) * word)
      + ((Array.length s.cell_off + 1) * word)
      + ((Array.length s.cell_pts + 1) * word)
      + (13 * word)
