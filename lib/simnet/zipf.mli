(** Zipf popularity: rank [i] (0-based) of [n] has probability
    proportional to [1/(i+1)^s].  The serve tier draws its objects from
    it. *)

type t

val create : s:float -> n:int -> t
(** Precompute the normalized harmonic weights for [n] ranks; O(n) once,
    after which sampling is an O(log n) binary search and allocates
    nothing.  @raise Invalid_argument if [n <= 0]. *)

val sample : t -> Rng.t -> int
(** Inverse-CDF draw of a rank in [0, n): seeded entirely by the given
    RNG stream, no ambient randomness. *)
