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

(** The witness chain every scenario universe carries, and the one
    {!launch} registers SCw on by default. *)
val witness_chain : string

(** Phase windows of a run's trace: scw_deploy, edge_deploy (first to
    last [Deploy]), decision (first [Authorize_submitted] to
    [Decision_confirmed]) and settle (to the last [Redeem] or
    [Refund]). *)
val phases : Ac3_flow.Protocol.event Ac3_obs.Span.phase list

(** Set up an AC2T and schedule its poll loops without running the
    engine; drive the universe and {!Driver.finish} the handle.
    [witness_chain] (default {!witness_chain}) is the chain SCw lives
    on; SCw accepts an edge deployment's evidence once 2 blocks sit on
    top of the deployment's block. [poll_interval] is each
    participant's poll period, {!Driver.launch}'s 2 s by default.
    [participants] must cover the graph's vertices. [hooks] bind events
    (e.g. [Scw_confirmed], [Authorize_submitted Commit], [Redeem 1]) to
    callbacks fired at the event's first record, letting experiments
    crash participants at precise protocol phases. Edge events carry
    the edge's index in graph order. [abort_after] requests the refund path after that
    many virtual seconds if SCw is still undecided. [decision_depth] is
    d, the burial the SCw decision needs before anyone settles on it;
    it defaults to the witness chain's confirm depth, the depth its
    checkpoints sit at. [Error] on a missing participant, before
    anything touches a chain. *)
val launch :
  Universe.t ->
  ?witness_chain:string ->
  ?poll_interval:float ->
  graph:Ac2t.t ->
  participants:Participant.t list ->
  ?hooks:(Ac3_flow.Protocol.event * (unit -> unit)) list ->
  ?abort_after:float ->
  ?decision_depth:int ->
  unit ->
  (handle, string) Stdlib.result

(** {!launch} with SCw on {!witness_chain}, run the universe until the
    AC2T settles or [timeout] virtual seconds pass (the simulation
    horizon), {!Driver.finish}. *)
val execute :
  Universe.t ->
  timeout:float ->
  ?poll_interval:float ->
  graph:Ac2t.t ->
  participants:Participant.t list ->
  ?hooks:(Ac3_flow.Protocol.event * (unit -> unit)) list ->
  ?abort_after:float ->
  ?decision_depth:int ->
  unit ->
  (result, string) Stdlib.result
