(** 51% attacks on the witness network (paper Sec 6.3): private-fork
    races that try to flip a buried commit decision. *)

module Rng = Ac3_sim.Rng

type race_result = { success : bool; blocks_mined : int; duration_hours : float }

(** One race: an adversary with hash-power share [q] must overcome a
    deficit of [d]+1 blocks; [give_up] bounds its patience in own blocks
    mined. *)
val race :
  Rng.t -> q:float -> d:int -> block_interval:float -> give_up:int -> race_result

type estimate = {
  q : float;
  d : int;
  trials : int;
  successes : int;
  success_rate : float;
  analytic : float;
  mean_cost_usd : float;
}

(** Monte-Carlo estimate of success probability and rental cost. *)
val estimate :
  Rng.t ->
  q:float ->
  d:int ->
  block_interval:float ->
  trials:int ->
  cost_per_hour:float ->
  estimate

(** [estimate] across several depths on an [Ac3_par.Pool]. Each depth
    draws from its own Splitmix(seed, index)-derived stream, so the
    result is bit-identical for every [jobs] (default 1). *)
val depth_sweep_par :
  ?jobs:int ->
  seed:int ->
  q:float ->
  depths:int list ->
  block_interval:float ->
  trials:int ->
  cost_per_hour:float ->
  unit ->
  estimate list

(** Concrete demonstration on the real chain machinery: a private branch
    one block longer than a depth-[fork_depth] public chain flips the
    tip. Returns (tip flipped, buried decision still active, store). *)
val run_reorg_demo : fork_depth:int -> unit -> bool * bool * Ac3_chain.Store.t
