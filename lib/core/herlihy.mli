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

(** Extra Δs of margin on every timelock. *)
val timelock_slack : float

(** Set up the swap with the graph's first participant as leader and
    schedule its per-participant poll loops — without running the
    engine; drive the universe and {!Driver.finish} the handle. Edge
    timelocks come from {!Ac3_verify.Timelock.assign}. [Error] if the
    graph is not single-leader executable (disconnected, or cyclic once
    the leader is removed — Sec 5.3). [hooks] fire on the first record
    of an event such as [Deploy 2] or [Redeem 1] (per-edge indexes in
    graph order).
    [obs_name] (default ["herlihy"]) labels the metrics and phase spans
    the run folds into the universe's observability context — Nolan's
    delegation passes its own name. [delta] is the timelock unit Δ;
    it defaults to the universe's {!Universe.max_delta}, the slowest
    chain's publish-and-recognise time. [poll_interval] is each
    participant's poll period, {!Driver.launch}'s 2 s by default. *)
val launch :
  Universe.t ->
  graph:Ac2t.t ->
  participants:Participant.t list ->
  ?hooks:(Ac3_flow.Protocol.event * (unit -> unit)) list ->
  ?obs_name:string ->
  ?delta:float ->
  ?poll_interval:float ->
  unit ->
  (handle, string) Stdlib.result

(** {!launch}, run the universe until the swap settles or [timeout]
    virtual seconds pass (the simulation horizon), {!Driver.finish}. *)
val execute :
  Universe.t ->
  timeout:float ->
  ?poll_interval:float ->
  graph:Ac2t.t ->
  participants:Participant.t list ->
  ?hooks:(Ac3_flow.Protocol.event * (unit -> unit)) list ->
  ?obs_name:string ->
  ?delta:float ->
  unit ->
  (result, string) Stdlib.result
