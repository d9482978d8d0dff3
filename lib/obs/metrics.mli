(** Deterministic metrics registry: counters, gauges and fixed-bucket
    histograms.

    Everything observable is a pure function of what was recorded, never
    of wall-clock time or scheduling: snapshots render instruments in
    sorted (name, labels) order, histograms have a fixed bucket layout
    decided at creation, and {!merge_into} folds one registry into
    another deterministically — merging per-task registries in task-index
    order yields byte-identical JSON for every [--jobs N].

    Instruments are cheap when the registry is disabled: every operation
    checks one boolean and returns. *)

type t

type counter

type gauge

type histogram

(** [create ()] makes an empty registry. [enabled:false] yields a
    registry whose instruments ignore all observations (for components
    run without a registry, and for shrinking, which discards it). *)
val create : ?enabled:bool -> unit -> t

val is_enabled : t -> bool

(** Number of registered instruments. *)
val size : t -> int

(** [counter t name] returns the counter registered under
    [(name, labels)], creating it on first use. Labels are sorted by
    key, so the argument order never matters. Raises [Invalid_argument]
    if the name is already registered as a different instrument kind. *)
val counter : t -> ?labels:(string * string) list -> string -> counter

val incr : counter -> unit

(** [add c n] adds [n] (>= 0) to the counter. *)
val add : counter -> int -> unit

val counter_value : counter -> int

val gauge : t -> ?labels:(string * string) list -> string -> gauge

val set : gauge -> float -> unit

(** [None] until the gauge is first set. *)
val gauge_value : gauge -> float option

(** [histogram t ~lo ~hi ~buckets name] registers an equal-width
    histogram over [\[lo, hi\]] — the top bucket is closed, so [x = hi]
    lands in the last bucket. Samples outside the range are counted in
    [underflow]/[overflow] rather than dropped silently; NaNs are
    dropped and counted. Raises [Invalid_argument] on a bucket-layout
    mismatch with an already-registered histogram of the same key. *)
val histogram :
  t -> ?labels:(string * string) list -> lo:float -> hi:float -> buckets:int -> string -> histogram

val observe : histogram -> float -> unit

type hist_snapshot = {
  lo : float;
  hi : float;
  counts : int array;
  underflow : int;
  overflow : int;
  nans : int;
  sum : float;  (** sum of in-range samples, in observation order *)
  count : int;  (** number of in-range samples *)
}

val hist_snapshot : histogram -> hist_snapshot

(** [merge_into ~into src] folds [src] into [into]: counters and
    histogram cells add, gauges take [src]'s value when it has one
    (last-writer-wins in merge order). Instruments missing from [into]
    are created. Raises [Invalid_argument] on kind or bucket-layout
    conflicts. Merging registries in a fixed order is the determinism
    discipline of the parallel sweeps. *)
val merge_into : into:t -> t -> unit

(** Stable snapshot: instruments sorted by (name, labels), fields in a
    fixed order, floats rendered exactly — byte-identical for equal
    contents. *)
val to_json : t -> Ac3_crypto.Codec.Json.t

(** Human-readable snapshot, one instrument per line, sorted. *)
val pp : Format.formatter -> t -> unit
