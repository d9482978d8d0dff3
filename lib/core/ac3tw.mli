(** AC3TW: atomic cross-chain commitment with a centralized trusted
    witness (paper Sec 4.1). Atomic, but hinges on trusting Trent — the
    single point of failure AC3WN removes. A {!Driver} rule whose
    decision source is Trent's signature. *)

module Ac2t = Ac3_contract.Ac2t

include module type of struct
  include Driver.Shared
end

type config = { poll_interval : float; timeout : float }

val default_config : config

(** Execute an AC2T through Trent: register ms(D), deploy all edge
    contracts concurrently, obtain T(ms(D), RD) once everything is
    confirmed, redeem in parallel. [abort_after] switches to requesting
    T(ms(D), RF) if undecided by then. [Error] if registration fails. *)
val execute :
  Universe.t ->
  config:config ->
  trent:Trent.t ->
  graph:Ac2t.t ->
  participants:Participant.t list ->
  ?abort_after:float ->
  unit ->
  (result, string) Stdlib.result
