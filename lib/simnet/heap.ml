type ('k, 'v) entry = { key : 'k; seq : int; value : 'v }

type ('k, 'v) t = {
  cmp : 'k -> 'k -> int;
  mutable data : ('k, 'v) entry array;
  mutable size : int;
  mutable next_seq : int;
}

let create ~cmp = { cmp; data = [||]; size = 0; next_seq = 0 }

let length h = h.size

let is_empty h = h.size = 0

(* Stable ordering: compare keys, break ties by insertion sequence. *)
let lt h a b =
  let c = h.cmp a.key b.key in
  if c <> 0 then c < 0 else a.seq < b.seq

let grow h =
  let cap = Array.length h.data in
  if h.size = cap then begin
    let ncap = if cap = 0 then 16 else cap * 2 in
    let nd = Array.make ncap h.data.(0) in
    Array.blit h.data 0 nd 0 h.size;
    h.data <- nd
  end

let rec sift_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if lt h h.data.(i) h.data.(parent) then begin
      let tmp = h.data.(i) in
      h.data.(i) <- h.data.(parent);
      h.data.(parent) <- tmp;
      sift_up h parent
    end
  end

let rec sift_down h i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < h.size && lt h h.data.(l) h.data.(!smallest) then smallest := l;
  if r < h.size && lt h h.data.(r) h.data.(!smallest) then smallest := r;
  if !smallest <> i then begin
    let tmp = h.data.(i) in
    h.data.(i) <- h.data.(!smallest);
    h.data.(!smallest) <- tmp;
    sift_down h !smallest
  end

let push h key value =
  let e = { key; seq = h.next_seq; value } in
  h.next_seq <- h.next_seq + 1;
  if h.size = 0 && Array.length h.data = 0 then h.data <- Array.make 16 e
  else grow h;
  h.data.(h.size) <- e;
  h.size <- h.size + 1;
  sift_up h (h.size - 1)

let peek h = if h.size = 0 then None else Some (h.data.(0).key, h.data.(0).value)

let pop h =
  if h.size = 0 then None
  else begin
    let top = h.data.(0) in
    h.size <- h.size - 1;
    if h.size > 0 then begin
      h.data.(0) <- h.data.(h.size);
      sift_down h 0
    end;
    Some (top.key, top.value)
  end

let pop_exn h =
  match pop h with
  | Some kv -> kv
  | None -> invalid_arg "Heap.pop_exn: empty heap"

let rec drain h =
  match pop h with
  | None -> ()
  | Some (time, f) ->
      f time;
      drain h

let clear h =
  h.size <- 0;
  h.data <- [||]

let to_sorted_list h =
  let rec drain acc =
    match pop h with None -> List.rev acc | Some kv -> drain (kv :: acc)
  in
  drain []
