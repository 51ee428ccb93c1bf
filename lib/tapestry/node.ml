type status = Inserting | Active | Leaving | Dead

type t = {
  id : Node_id.t;
  addr : int;
  mutable handle : int;
  table : Routing_table.t;
  pointers : Pointer_store.t;
  replicas : unit Node_id.Tbl.t;
  mutable status : status;
  mutable surrogate_hint : int;
}

let no_handle = -1

let create cfg ~id ~addr =
  {
    id;
    addr;
    handle = no_handle;
    table = Routing_table.create cfg ~owner:id;
    pointers = Pointer_store.create ();
    replicas = Node_id.Tbl.create 4;
    status = Inserting;
    surrogate_hint = no_handle;
  }

let is_alive t =
  match t.status with Inserting | Active | Leaving -> true | Dead -> false

let is_core t = match t.status with Active | Leaving -> true | Inserting | Dead -> false

let stores_replica t guid = Node_id.Tbl.mem t.replicas guid

let add_replica t guid = Node_id.Tbl.replace t.replicas guid ()

let remove_replica t guid = Node_id.Tbl.remove t.replicas guid

let pp ppf t =
  let status =
    match t.status with
    | Inserting -> "inserting"
    | Active -> "active"
    | Leaving -> "leaving"
    | Dead -> "dead"
  in
  Format.fprintf ppf "%s@%d[%s]" (Node_id.to_string t.id) t.addr status
