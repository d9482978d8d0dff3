(** AC3WN: the atomic cross-chain commitment protocol with a
    permissionless witness network (paper Sec 4.2).

    [execute] runs a complete AC2T: off-chain multisignature on the
    graph, SCw registration on the witness chain, parallel deployment of
    the per-edge contracts, the evidence-backed state change, and
    parallel redemption — or the refund path on abort. A {!Driver} rule
    whose decision source is the SCw state change confirmed at depth d. *)

module Ac2t = Ac3_contract.Ac2t

include module type of struct
  include Driver.Shared
end

type handle = Driver.handle

type config = {
  witness_chain : string;
  evidence_depth : int;  (** burial required of deployment evidence *)
  decision_depth : int;  (** d: burial required of the SCw decision *)
  poll_interval : float;
  timeout : float;  (** horizon for the simulation run *)
}

val default_config : witness_chain:string -> config

(** Phase windows of a run's trace: scw_deploy, edge_deploy, decision,
    settle. *)
val phases : Ac3_obs.Span.phase list

(** Set up an AC2T and schedule its poll loops without running the
    engine; drive the universe and {!Driver.finish} the handle.
    [participants] must cover the graph's vertices. [hooks] bind trace
    labels (e.g. ["scw_confirmed"], ["authorize_redeem_submitted"]) to
    callbacks, letting experiments crash participants at precise
    protocol phases. [abort_after] requests the refund path after that
    many virtual seconds if SCw is still undecided. [Error] on a
    missing participant, before anything touches a chain. *)
val launch :
  Universe.t ->
  config:config ->
  graph:Ac2t.t ->
  participants:Participant.t list ->
  ?hooks:(string * (unit -> unit)) list ->
  ?abort_after:float ->
  unit ->
  (handle, string) Stdlib.result

(** {!launch}, run the universe until the AC2T settles (or [config]'s
    timeout), {!Driver.finish}. *)
val execute :
  Universe.t ->
  config:config ->
  graph:Ac2t.t ->
  participants:Participant.t list ->
  ?hooks:(string * (unit -> unit)) list ->
  ?abort_after:float ->
  unit ->
  (result, string) Stdlib.result
