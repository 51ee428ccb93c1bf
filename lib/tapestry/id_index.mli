(** Digit trie over identifiers.

    Verification-side index used by invariant checkers, the static builder and
    experiment setup (never by protocol logic): answers "which digits extend
    prefix alpha among live nodes" and enumerates all IDs under a prefix in
    O(answer). *)

type t

val create : base:int -> t

val add : t -> Node_id.t -> unit

val remove : t -> Node_id.t -> unit

val mem : t -> Node_id.t -> bool

val size : t -> int

val digits_after : t -> prefix:int array -> len:int -> int list
(** Digits [j] such that some stored ID extends [prefix[0..len)] with [j]. *)

val ids_with_prefix : t -> prefix:int array -> len:int -> Node_id.t list

val count_with_prefix : t -> prefix:int array -> len:int -> int

val exists_extension : t -> prefix:int array -> len:int -> digit:int -> bool
(** Is there a stored ID whose first [len] digits are [prefix] and whose
    next digit is [digit]? Exactly the "hole" oracle of Property 1. *)

val approx_bytes : t -> int
(** Estimated resident bytes of the trie (nodes, children arrays, terminal
    conses; shared ids excluded).  O(trie size); feeds
    {!Network.memory_footprint}. *)
