open Effect
open Effect.Deep

type t = {
  mutable clock : float;
  queue : (float, unit -> unit) Heap.t;
  mutable started : int;
  mutable finished : int;
}

type 'a ivar_state = Empty of ('a -> unit) list | Full of 'a

type 'a ivar_cell = { mutable st : 'a ivar_state }

type _ Effect.t += Sleep : t * float -> unit Effect.t
type _ Effect.t += Await : t * 'a ivar_cell -> 'a Effect.t

let create () =
  { clock = 0.; queue = Heap.create ~cmp:Float.compare; started = 0; finished = 0 }

let now sched = sched.clock

let sleep sched d = perform (Sleep (sched, max 0. d))

(* Each fiber runs under a deep handler: Sleep re-queues the continuation in
   the event heap; Await either resumes immediately or parks the continuation
   as a waiter closure in the ivar. *)
let run_fiber sched f =
  sched.started <- sched.started + 1;
  match_with f ()
    {
      retc = (fun () -> sched.finished <- sched.finished + 1);
      exnc = raise;
      effc =
        (fun (type b) (eff : b Effect.t) ->
          match eff with
          | Sleep (s, d) ->
              Some
                (fun (k : (b, unit) continuation) ->
                  Heap.push s.queue (s.clock +. d) (fun () -> continue k ()))
          | Await (s, iv) ->
              Some
                (fun (k : (b, unit) continuation) ->
                  match iv.st with
                  | Full v -> continue k v
                  | Empty ws ->
                      let waiter v =
                        Heap.push s.queue s.clock (fun () -> continue k v)
                      in
                      iv.st <- Empty (waiter :: ws))
          | _ -> None);
    }

let spawn_at sched time f =
  let time = max time sched.clock in
  Heap.push sched.queue time (fun () -> run_fiber sched f)

let spawn sched f = spawn_at sched sched.clock f

let run sched =
  let rec loop () =
    match Heap.pop sched.queue with
    | None -> ()
    | Some (time, thunk) ->
        if time > sched.clock then sched.clock <- time;
        thunk ();
        loop ()
  in
  loop ()

let run_until sched limit =
  let rec loop () =
    match Heap.peek sched.queue with
    | Some (time, _) when time <= limit ->
        let time, thunk = Heap.pop_exn sched.queue in
        if time > sched.clock then sched.clock <- time;
        thunk ();
        loop ()
    | _ -> sched.clock <- max sched.clock limit
  in
  loop ()

let stalled_fibers sched =
  sched.started - sched.finished - Heap.length sched.queue

module Ivar = struct
  type 'a ivar = { sched : t; cell : 'a ivar_cell }

  let create sched = { sched; cell = { st = Empty [] } }

  let fill iv v =
    match iv.cell.st with
    | Full _ -> invalid_arg "Fiber.Ivar.fill: already filled"
    | Empty ws ->
        iv.cell.st <- Full v;
        List.iter (fun w -> w v) (List.rev ws)

  let read iv =
    match iv.cell.st with
    | Full v -> v
    | Empty _ -> perform (Await (iv.sched, iv.cell))

  let is_full iv = match iv.cell.st with Full _ -> true | Empty _ -> false

  let peek iv = match iv.cell.st with Full v -> Some v | Empty _ -> None
end
