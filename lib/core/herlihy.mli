(** The single-leader hashlock/timelock atomic swap protocol of Herlihy
    (2018), generalizing Nolan's two-party swap — the baseline the paper
    evaluates AC3WN against (Sec 6, Figures 8 and 10).

    Contracts deploy sequentially along paths from the leader
    (Diam(D) rounds) and redeem sequentially as the secret propagates
    back (another Diam(D) rounds). Timelocks expire; a participant that
    crashes past its window loses its assets (Sec 1). A {!Driver} rule
    whose decision source is knowledge of the secret. *)

module Ac2t = Ac3_contract.Ac2t

include module type of struct
  include Driver.Shared
end

type handle = Driver.handle

type config = {
  delta : float;  (** Δ: the timelock unit *)
  timelock_slack : float;  (** extra Δs of margin on every timelock *)
  poll_interval : float;
  timeout : float;
}

val default_config : delta:float -> config

(** Phase windows of a run's trace: deploy, redeem, refund. *)
val phases : Ac3_obs.Span.phase list

(** Set up the swap with the graph's first participant as leader and
    schedule its per-participant poll loops — without running the
    engine; drive the universe and {!Driver.finish} the handle. Edge
    timelocks come from {!Ac3_verify.Timelock.assign}. [Error] if the
    graph is not single-leader executable (disconnected, or cyclic once
    the leader is removed — Sec 5.3). [hooks] fire on trace labels such
    as ["deploy:2"] or ["redeem:1"] (per-edge indexes in graph order).
    [obs_name] (default ["herlihy"]) labels the metrics and phase spans
    the run folds into the universe's observability context — Nolan's
    delegation passes its own name. *)
val launch :
  Universe.t ->
  config:config ->
  graph:Ac2t.t ->
  participants:Participant.t list ->
  ?hooks:(string * (unit -> unit)) list ->
  ?obs_name:string ->
  unit ->
  (handle, string) Stdlib.result

(** {!launch}, run the universe until the swap settles (or [config]'s
    timeout), {!Driver.finish}. *)
val execute :
  Universe.t ->
  config:config ->
  graph:Ac2t.t ->
  participants:Participant.t list ->
  ?hooks:(string * (unit -> unit)) list ->
  ?obs_name:string ->
  unit ->
  (result, string) Stdlib.result
