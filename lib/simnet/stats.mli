(** Summary statistics and plain-text table rendering for experiments. *)

type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

val summarize : float list -> summary
(** Summary of a non-empty sample; all-zero summary for an empty one. *)

val mean : float list -> float

val percentile : float list -> float -> float
(** [percentile xs p] with [p] in [\[0,1\]], nearest-rank on sorted data. *)

val gini : float list -> float
(** Gini coefficient of a non-negative sample; 0 = perfectly balanced.
    Used for the "Balanced?" column of Table 1. *)

val linear_fit : (float * float) list -> float * float
(** [linear_fit pts] returns [(slope, intercept)] of the least-squares line.
    Used on log-log data to estimate asymptotic exponents. *)

val pp_summary : Format.formatter -> summary -> unit

(** Fixed-width table rendering used by the bench harness and the CLI. *)
module Table : sig
  type t

  val create : title:string -> columns:string list -> t

  val add_row : t -> string list -> unit

  val render : t -> string

  val print : t -> unit

  val title : t -> string

  val to_csv : t -> string
  (** Comma-separated rendering (quoted cells), header row first. *)
end

val fmt_float : float -> string
(** Compact float formatting for table cells. *)

(** Object-cache counters (PR 9).  One record per accounting domain —
    the sync locate path keeps one inside the cache itself, the serve
    engine keeps one per shard context and merges them in fixed shard
    order at the end of a run, so the totals are bit-identical for any
    [--domains].  All fields are plain mutable ints: bumping one on the
    hot path allocates nothing. *)
module Tally : sig
  type t = {
    mutable hits : int;  (** cache probe named a currently valid server *)
    mutable misses : int;  (** no entry for the key at the probed node *)
    mutable stale : int;
        (** entry found but epoch/generation/liveness check failed *)
    mutable fills : int;  (** entries written (or refreshed) into a cache *)
    mutable evicts : int;
        (** entries removed by invalidation (not capacity replacement) *)
    mutable recoveries : int;
        (** redirects spent: a stale or overflowed FETCH that re-climbed
            instead of failing *)
    mutable hint_fills : int;
        (** entries written by cooperative hint exchange, a subset of
            {!field-fills}, kept separate so [--coop off] signatures
            carry no hint fields *)
    mutable hint_hits : int;
        (** hits served from an entry the node imported as a hint
            rather than learned from its own fetch unwind *)
  }

  val create : unit -> t

  val reset : t -> unit
  (** Zero every counter in place (mesh-reuse replay support). *)

  val merge : into:t -> t -> unit
  (** Element-wise addition. *)

  val lookups : t -> int
  (** [hits + misses + stale]: denominator of {!hit_rate}. *)

  val hit_rate : t -> float
  (** [hits / lookups]; 0 when no lookups happened. *)
end

(** HDR-style log-bucketed histogram for the serve tier's latency tails.

    Fixed 2048 int buckets (64 binary octaves x 32 mantissa strips), so
    {!Hist.add} allocates nothing and any quantile is within 1/64
    relative error.  {!Hist.merge} is element-wise addition — per-shard
    histograms merged in a fixed order are bit-identical whatever the
    domain count — and {!Hist.counts} is the determinism signature the
    serve tests compare. *)
module Hist : sig
  type h

  val create : unit -> h

  val add : h -> float -> unit
  (** Record one sample (non-positive values clamp to the first bucket). *)

  val merge : into:h -> h -> unit

  val total : h -> int

  val mean : h -> float

  val min_value : h -> float

  val max_value : h -> float

  val quantile : h -> float -> float
  (** [quantile t p] with [p] in [\[0,1\]]: nearest-rank over the bucket
      cumulative counts, answering the bucket's lower edge (conservative
      to within one 1/64-wide bucket).  0 on an empty histogram. *)

  val counts : h -> int array
  (** Copy of the raw bucket counters. *)

  val equal : h -> h -> bool
  (** Same total and identical bucket counters. *)
end
