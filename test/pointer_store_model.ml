(* Reference model for Pointer_store: the earlier two-hashtable store of
   boxed records, kept as the oracle for the column store.  A primary
   table keyed by (guid, server, root_idx) holds the records; a secondary
   table maps each guid to its records, newest first (a new record is
   consed on, a removal filters the list, a refresh leaves it in place).
   Every operation here is the obvious one, which is the point.
   [of_cols] copies one record out of the store's columns, so both sides
   compare as records. *)

open Tapestry

type record = {
  guid : Node_id.t;
  server : int;
  root_idx : int;
  mutable previous : int;
  mutable expires : float;
}

let of_cols (c : Pointer_store.cols) i =
  {
    guid = c.guid.(i);
    server = c.server.(i);
    root_idx = c.root_idx.(i);
    previous = c.previous.(i);
    expires = c.expires.(i);
  }

(* Every record of a column store, in index order. *)
let of_store ps =
  let c = Pointer_store.cols ps in
  List.init (Pointer_store.size ps) (of_cols c)

module Key = struct
  type t = Node_id.t * int * int

  let equal ((g1, s1, r1) : t) ((g2, s2, r2) : t) =
    r1 = r2 && s1 = s2 && Node_id.equal g1 g2

  let hash (g, s, r) = (((Node_id.hash g * 31) + s) * 31) + r
end

module Tbl = Hashtbl.Make (Key)

type t = { recs : record Tbl.t; by_guid : record list Node_id.Tbl.t }

let create () = { recs = Tbl.create 8; by_guid = Node_id.Tbl.create 8 }

let by_guid t guid =
  Option.value ~default:[] (Node_id.Tbl.find_opt t.by_guid guid)

let index_remove t ~guid ~server ~root_idx =
  match
    List.filter
      (fun (r : record) ->
        not (r.root_idx = root_idx && r.server = server))
      (by_guid t guid)
  with
  | [] -> Node_id.Tbl.remove t.by_guid guid
  | l -> Node_id.Tbl.replace t.by_guid guid l

let store t ~guid ~server ~root_idx ~previous ~expires =
  match Tbl.find_opt t.recs (guid, server, root_idx) with
  | Some r ->
      let old = r.previous in
      r.previous <- previous;
      r.expires <- max r.expires expires;
      old
  | None ->
      let r = { guid; server; root_idx; previous; expires } in
      Tbl.replace t.recs (guid, server, root_idx) r;
      Node_id.Tbl.replace t.by_guid guid (r :: by_guid t guid);
      Pointer_store.fresh

let remove t ~guid ~server ~root_idx =
  Tbl.mem t.recs (guid, server, root_idx)
  && begin
       Tbl.remove t.recs (guid, server, root_idx);
       index_remove t ~guid ~server ~root_idx;
       true
     end

(* Drop every record matching [victim]; returns how many went. *)
let remove_where t victim =
  let keys =
    Tbl.fold (fun k r acc -> if victim r then k :: acc else acc) t.recs []
  in
  List.iter
    (fun ((guid, server, root_idx) as k) ->
      Tbl.remove t.recs k;
      index_remove t ~guid ~server ~root_idx)
    keys;
  List.length keys

let expire t ~now = remove_where t (fun r -> r.expires < now)

let records t = Tbl.fold (fun _ r acc -> r :: acc) t.recs []

let size t = Tbl.length t.recs

let clear t =
  Tbl.reset t.recs;
  Node_id.Tbl.reset t.by_guid
