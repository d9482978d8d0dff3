(** Discrete-event simulation engine with a virtual clock.

    Events at equal timestamps fire in scheduling order, so simulations are
    deterministic. Time is in abstract seconds. A scheduled event always
    fires once its time is reached: there is no cancellation, callbacks
    that may become moot check their own condition when they run. *)

type t

(** Fresh engine with the clock at 0. *)
val create : unit -> t

(** Current virtual time. *)
val now : t -> float

(** Total number of events executed so far. *)
val executed_events : t -> int

(** [schedule_at t ~time f] runs [f] at absolute virtual [time].
    Raises [Invalid_argument] if [time] is in the past. *)
val schedule_at : t -> time:float -> (unit -> unit) -> unit

(** [schedule t ~delay f] runs [f] after [delay] virtual seconds.
    Raises [Invalid_argument] if [delay] is negative. *)
val schedule : t -> delay:float -> (unit -> unit) -> unit

(** [run ?until ?stop t] executes queued events in time order until the
    queue drains, the next event lies beyond [until], or [stop ()] is true.
    Returns the number of events executed. The clock is advanced to [until]
    if the queue drains before the horizon. *)
val run : ?until:float -> ?stop:(unit -> bool) -> t -> int

(** [run_until t horizon] is [ignore (run ~until:horizon t)]. *)
val run_until : t -> float -> unit

(** [schedule_repeating t ~while_ ~first ~every f] runs [f] at
    [now + first] and then every [every] seconds for as long as
    [while_ ()] holds, checked before and after each run of [f]. *)
val schedule_repeating :
  t -> while_:(unit -> bool) -> first:float -> every:float -> (unit -> unit) -> unit
