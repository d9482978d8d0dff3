(** Zipf-distributed popularity sampling for the workload engine.

    Rank 0 is the most popular item; [P(rank = i)] is proportional to
    [1 / (i + 1)^s]. With [s = 0] the distribution is uniform. *)

type t

(** Raises [Invalid_argument] when [n < 1] or [s < 0]. *)
val create : n:int -> s:float -> t

(** [prob t i] is [P(rank = i)]; strictly decreasing in [i] for
    [s > 0]. Raises [Invalid_argument] out of range. *)
val prob : t -> int -> float

(** Draw a rank in [[0, n)]; consumes exactly one [Rng.float]. *)
val sample : t -> Ac3_sim.Rng.t -> int
