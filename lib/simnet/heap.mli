(** Binary min-heap over ordered keys with attached payloads.

    Used as the discrete-event queue of the simulator (see {!drain}) and
    for k-closest trimming in the nearest-neighbor algorithm.  Keys are
    compared with the supplied comparison; ties are broken by insertion
    order so that the heap is stable, which keeps simulation runs
    deterministic. *)

type ('k, 'v) t

val create : cmp:('k -> 'k -> int) -> ('k, 'v) t
(** Empty heap ordered by [cmp]. *)

val length : ('k, 'v) t -> int

val is_empty : ('k, 'v) t -> bool

val push : ('k, 'v) t -> 'k -> 'v -> unit

val peek : ('k, 'v) t -> ('k * 'v) option
(** Smallest element without removing it. *)

val pop : ('k, 'v) t -> ('k * 'v) option
(** Remove and return the smallest element. *)

val pop_exn : ('k, 'v) t -> 'k * 'v
(** @raise Invalid_argument on an empty heap. *)

val drain : ('k, 'k -> unit) t -> unit
(** Run a timeline: pop each [(time, f)] and call [f time] until the heap
    is empty.  Events [f] pushes are run too, in key order; ties run in
    push order, so an event pushed for the current time runs after the
    events already queued for it. *)

val clear : ('k, 'v) t -> unit

val to_sorted_list : ('k, 'v) t -> ('k * 'v) list
(** Ascending key order; destroys the heap contents. *)
