(** Deterministic SplitMix64 pseudo-random number generator.

    All randomness in the simulator is drawn from values of type {!t} so
    experiments replay identically from a seed. *)

type t

(** [create seed] returns a generator seeded with [seed]. *)
val create : int -> t

(** [of_int64 seed] seeds from a full 64-bit value. *)
val of_int64 : int64 -> t

(** [copy t] is an independent clone with the same state. *)
val copy : t -> t

(** [split t] derives a statistically independent generator and advances
    [t]. Give each simulated process its own stream via [split]. *)
val split : t -> t

(** [bits t] returns 30 uniformly random non-negative bits. *)
val bits : t -> int

(** [int t bound] is uniform in [\[0, bound)]. Raises [Invalid_argument]
    if [bound <= 0]. *)
val int : t -> int -> int

(** [int64 t] is a uniformly random 64-bit value. *)
val int64 : t -> int64

(** [float t bound] is uniform in [\[0, bound)]. *)
val float : t -> float -> float

(** [bool t] is a fair coin flip. *)
val bool : t -> bool

(** [bernoulli t p] is [true] with probability [p]. *)
val bernoulli : t -> float -> bool

(** [exponential t ~mean] samples an exponential variate with the given
    mean; models memoryless proof-of-work block production. *)
val exponential : t -> mean:float -> float

(** [uniform_range t ~lo ~hi] is uniform in [\[lo, hi)]. *)
val uniform_range : t -> lo:float -> hi:float -> float

(** [bytes t n] returns [n] uniformly random bytes. *)
val bytes : t -> int -> bytes

(** [shuffle t arr] permutes [arr] in place (Fisher-Yates). *)
val shuffle : t -> 'a array -> unit
