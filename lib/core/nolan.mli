(** Nolan's two-party atomic swap (2013): the original hashlock/timelock
    protocol from the paper's introduction — the two-vertex case of the
    single-leader protocol, with the same crash hazard. *)

type result = Herlihy.result

type handle = Herlihy.handle

(** Launch a two-party swap without running the engine; drive the
    universe and {!Driver.finish} it. [hooks] fire as in
    {!Herlihy.launch}; [poll_interval] is each participant's poll
    period, 2 s by default. [Error] under the same conditions as
    {!execute}. *)
val launch :
  Universe.t ->
  graph:Ac3_contract.Ac2t.t ->
  participants:Participant.t list ->
  ?hooks:(Ac3_flow.Protocol.event * (unit -> unit)) list ->
  ?poll_interval:float ->
  unit ->
  (handle, string) Stdlib.result

(** Execute a two-party swap until it settles or [timeout] virtual
    seconds pass. [Error] if the graph is not a simple two-party
    swap. *)
val execute :
  Universe.t ->
  timeout:float ->
  graph:Ac3_contract.Ac2t.t ->
  participants:Participant.t list ->
  ?hooks:(Ac3_flow.Protocol.event * (unit -> unit)) list ->
  unit ->
  (result, string) Stdlib.result
