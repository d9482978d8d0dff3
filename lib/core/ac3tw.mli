(** AC3TW: atomic cross-chain commitment with a centralized trusted
    witness (paper Sec 4.1). Atomic, but hinges on trusting Trent — the
    single point of failure AC3WN removes. A {!Driver} rule whose
    decision source is Trent's signature. *)

module Ac2t = Ac3_contract.Ac2t

include module type of struct
  include Driver.Shared
end

(** Execute an AC2T through Trent: register ms(D), deploy all edge
    contracts concurrently, obtain T(ms(D), RD) once everything is
    confirmed, redeem in parallel, each participant polling every 2 s.
    The run ends once it settles or [timeout] virtual seconds pass
    (the simulation horizon). [abort_after] switches to requesting
    T(ms(D), RF) if undecided by then. [Error] if registration fails. *)
val execute :
  Universe.t ->
  timeout:float ->
  trent:Trent.t ->
  graph:Ac2t.t ->
  participants:Participant.t list ->
  ?abort_after:float ->
  unit ->
  (result, string) Stdlib.result
