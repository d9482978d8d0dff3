(** Statistics helpers for the experiment harness.

    NaN policy: order statistics ({!percentile}, {!maximum}) drop NaN
    samples; {!mean} propagates NaN. *)

val mean : float list -> float

(** NaN iff there are no valid samples. *)
val maximum : float list -> float

(** Nearest-rank percentile; [p] in [\[0, 100\]]. Sorts with a total
    float order; NaN samples are dropped first. *)
val percentile : float list -> float -> float
