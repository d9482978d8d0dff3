(** Nolan's two-party atomic swap (2013): the original hashlock/timelock
    protocol from the paper's introduction — the two-vertex case of the
    single-leader protocol, with the same crash hazard. *)

type config = Herlihy.config

val default_config : delta:float -> config

type result = Herlihy.result

type handle = Herlihy.handle

(** Launch a two-party swap without running the engine; drive the
    universe and {!Driver.finish} it. [Error] under the same conditions
    as {!execute}. *)
val launch :
  Universe.t ->
  config:config ->
  graph:Ac3_contract.Ac2t.t ->
  participants:Participant.t list ->
  ?hooks:(string * (unit -> unit)) list ->
  unit ->
  (handle, string) Stdlib.result

(** Execute a two-party swap. [Error] if the graph is not a simple
    two-party swap. *)
val execute :
  Universe.t ->
  config:config ->
  graph:Ac3_contract.Ac2t.t ->
  participants:Participant.t list ->
  ?hooks:(string * (unit -> unit)) list ->
  unit ->
  (result, string) Stdlib.result
