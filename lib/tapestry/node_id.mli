(** Identifiers: strings of digits in radix [b].

    Both node-IDs and object GUIDs are represented this way (Section 2);
    identifiers are uniformly distributed in the namespace.  Digits are
    indexed from 0 (most significant), so [digit id 0] is the first digit
    resolved when routing.

    An ID is one immediate int: its length in bits 0-5, its digits above,
    most significant highest, each in a field of [field_bits len] bits.
    So it takes one word wherever it is stored, keeps nothing alive, and
    [equal], [compare], [hash], [digit] and [common_prefix_len] allocate
    nothing.  Every radix up to 32 fits at 11 digits or fewer; longer IDs
    fit when their digits fit [field_bits len] (base 16 up to 14 digits,
    base 4 up to 28, base 2 up to 56). *)

type t [@@immediate]

val field_bits : int -> int
(** [field_bits len] is the width of one digit's field in an ID of [len]
    digits, [min 5 (56 / len)]; 0 when [len] is outside 0..56, where no ID
    fits one word.  A radix [b] fits when [log2 b <= field_bits len]. *)

val make : int array -> t
(** The ID of these digits.
    @raise Invalid_argument when a digit is negative or wider than
    [field_bits] of the length, or the length is over 56. *)

val random : base:int -> len:int -> Simnet.Rng.t -> t

val of_string : base:int -> string -> t
(** Parse from the {!to_string} representation (digit characters 0-9a-v).
    @raise Invalid_argument on malformed input. *)

val to_string : t -> string

val length : t -> int

val digit : t -> int -> int
(** [digit id i] is the i-th digit, 0-indexed from the most significant.
    A shift and a mask.  @raise Invalid_argument outside [0 .. length - 1]. *)

val digits : t -> int array
(** The digits as a fresh array. *)

val equal : t -> t -> bool

val compare : t -> t -> int
(** Digit by digit, most significant first; a shorter ID orders before its
    extensions.  One int compare when the lengths are equal. *)

val hash : t -> int
(** The digit polynomial: 5381, then [acc * 131 + digit + 1] per digit,
    most significant first, [land max_int].  Fixed: every [Tbl]'s bucket
    and iteration order follows it. *)

val common_prefix_len : t -> t -> int
(** Length of the greatest common prefix, in digits. *)

val has_prefix : t -> prefix:int array -> len:int -> bool
(** Do the first [len] digits equal [prefix.(0..len-1)]? *)

val prefix : t -> int -> int array
(** First [n] digits as a fresh array. *)

val extensions : t -> level:int -> digit:int -> t * t
(** The least and the greatest ID of [t]'s length whose first [level]
    digits are [t]'s and whose digit [level] is [digit].  IDs of one
    length order as ints, so those IDs are exactly the ones between the
    two.  @raise Invalid_argument when [level] is outside
    [0 .. length - 1] or [digit] is wider than its field. *)

val salt : base:int -> t -> int -> t
(** [salt ~base id i] deterministically maps [id] to the i-th member of its
    root set (Observation 2: a pseudo-random function from the GUID to
    identifiers psi_0, psi_1, ...).  [salt ~base id 0 = id]. *)

val to_int : base:int -> t -> int
(** The identifier read as a radix-[b] integer (used by the Chord baseline
    to place Tapestry-style IDs on its ring).  Must fit in an OCaml int. *)

val of_int : base:int -> len:int -> int -> t

module Tbl : Hashtbl.S with type key = t

module Set : Set.S with type elt = t

module Map : Map.S with type key = t
