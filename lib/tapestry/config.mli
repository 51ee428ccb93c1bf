(** Tapestry deployment parameters.

    Names follow the paper: digits are drawn from an alphabet of radix
    [base] (b), IDs are [id_digits] long, each routing-table slot keeps the
    [redundancy] (R) closest neighbors (primary + secondaries), and the
    insertion algorithm trims candidate lists to [k_list] (k = O(log n))
    entries per level.  Lemma 1 requires [base > c^2] where c is the metric's
    expansion constant. *)

type t = {
  base : int;  (** digit radix b; must be a power of two >= 2 *)
  id_digits : int;  (** digits per identifier *)
  redundancy : int;  (** R: neighbors kept per slot *)
  k_list : int;  (** k: neighbor-list width during insertion *)
  k_fixed : bool;  (** use [k_list] verbatim instead of scaling with log n (experiments) *)
  root_set_size : int;  (** |R_psi|: surrogate roots per object *)
  pointer_ttl : float;  (** soft-state lifetime of an object pointer *)
  republish_interval : float;  (** how often servers republish *)
  digit_bits : int;
      (** log2 [base], precomputed so the PRR-like first-hole rule never
          recounts it per hop.  Derived: {!Network.create} re-derives it via
          {!normalize}, so [{ default with base }] updates need not (and
          should not) set it by hand. *)
  expected_nodes : int;
      (** Expected final population (0 = unknown).  A capacity hint only:
          directory hashtables, the node arena and the alive array are
          pre-sized from it so bulk construction never pays a rehash/copy
          storm.  Never affects results — only allocation behavior. *)
}

val default : t
(** b = 16, 8-digit IDs, R = 3, k = 16, one root, TTL 300, republish 100. *)

val bits_of_base : int -> int
(** Bit width of one digit: log2 of a power-of-two base. *)

val normalize : t -> t
(** Recompute the derived [digit_bits] field from [base]. *)

val validate : t -> (unit, string) result
(** Rejects, among others, ID shapes that do not fit one word: [log2 base]
    must not exceed {!Node_id.field_bits} [id_digits]. *)

val table_capacity : ?floor:int -> t -> int
(** Initial-capacity hint for population-keyed hashtables: [expected_nodes]
    when declared (clamped up to [floor], default 64), else [floor]. *)

val scaled_k : t -> n:int -> int
(** [k] scaled to max(k_list, 4 ceil(log2 n)) — the O(log n) choice the
    theorems require, with [k_list] as a floor.  With [k_fixed] set, exactly
    [k_list] (for the k-sensitivity experiments). *)

val pp : Format.formatter -> t -> unit
