(** The AC2T driver kernel shared by every protocol (DESIGN.md Sec 3).

    An atomic cross-chain transaction is two-phase commit: the per-edge
    contracts are the participants, each deployed and then redeemed or
    refunded once its owner learns the decision. The driver owns what
    does not depend on who decides — per-edge state, the trace and its
    event hooks, the fee ledger, the abort timer and per-participant
    poll loops, edge settlement, and the run's observability. A
    protocol plugs in a {!rule}: its deploy step, its decision source
    and its phase list. *)

module Keys = Ac3_crypto.Keys
module Ac2t = Ac3_contract.Ac2t
open Ac3_chain

(** The result surface every protocol module re-exports, so that
    [r.Herlihy.committed] and [r.Ac3wn.committed] name the same field. *)
module Shared : sig
  type kind = Scw_deploy | Edge_deploy | Authorize | Redeem | Refund

  type fee_entry = { payer : Keys.public; kind : kind; fee : Amount.t }

  type result = {
    graph : Ac2t.t;
    contracts : string option list;  (** per-edge contract ids, graph order *)
    outcome : Outcome.t;
    atomic : bool;
    committed : bool;
    latency : float option;
        (** launch to the {!finish} call, in virtual seconds, if the run
            had settled by then; [None] otherwise. It equals the time to
            the last confirmed settlement only when the caller finishes
            the run as soon as {!settled} holds. *)
    trace : Ac3_flow.Protocol.event Ac3_sim.Trace.t;
    fees : fee_entry list;
  }

  (** Sum of all fees paid during the run. *)
  val total_fees : result -> Amount.t
end

include module type of struct
  include Shared
end

(** One edge of the run. Its gateway node and confirmation depth are
    resolved once, at {!launch}, so the depth checks every poll makes
    read two fields instead of looking the chain up by name. *)
type edge_state = {
  edge : Ac2t.edge;
  node : Node.t;  (** the gateway of the edge's chain *)
  depth : int;  (** that chain's confirmation depth *)
  mutable deploy_txid : string option;
  mutable contract_id : string option;
  mutable redeem_txid : string option;
  mutable refund_txid : string option;
}

(** One run: the universe, the per-edge state (graph order), the trace
    and the fee ledger. *)
type t

val universe : t -> Universe.t

val edges : t -> edge_state array

val trace : t -> Ac3_flow.Protocol.event Ac3_sim.Trace.t

(** Set by the abort timer (see {!launch}). *)
val abort_requested : t -> bool

(** Record an event once, at the current virtual time; the first
    occurrence fires any hook bound to it (experiments crash
    participants at protocol phases this way). *)
val record : t -> ?attrs:(string * string) list -> Ac3_flow.Protocol.event -> unit

val charge : t -> payer:Keys.public -> kind:kind -> fee:Amount.t -> unit

(** A transaction at the edge's confirmation depth on its gateway. *)
val confirmed : edge_state -> string option -> bool

(** Every edge contract's deployment confirmed. *)
val all_deployed : t -> bool

(** Deploy the participant's outgoing edge contracts that are not yet
    deployed and are [ready], in graph order: [ready i e] gates edge
    [i]; [args i e] builds its contract arguments, and only once the
    wallet has selected the coins to fund it; a successful deploy is
    charged as [Edge_deploy] and recorded as [Deploy i], with the
    attributes [attrs e contract_id]. *)
val deploy :
  t ->
  Participant.t ->
  code_id:string ->
  ready:(int -> edge_state -> bool) ->
  args:(int -> edge_state -> Value.t) ->
  attrs:(edge_state -> string -> (string * string) list) ->
  unit

(** Call [redeem] on the participant's incoming edge contracts, or
    [refund] on its outgoing ones, that are [ready], published and not
    yet settled that way. [ready i e] gates edge [i] before its contract
    is looked up; [args state] builds the call's arguments from the
    contract's state, and only once the wallet has selected the coins
    to fund the call; an [Error] skips the edge this poll. A successful
    call is charged and recorded as [Redeem i] or [Refund i]. *)
val settle :
  t ->
  Participant.t ->
  [ `Redeem | `Refund ] ->
  ready:(int -> edge_state -> bool) ->
  args:(Value.t -> (Value.t, string) Stdlib.result) ->
  unit

(** The deploy, redeem and refund phases, each spanning its edge
    events: the phases of a protocol that records nothing else per
    edge (Herlihy, Nolan, AC3TW). *)
val edge_phases : Ac3_flow.Protocol.event Ac3_obs.Span.phase list

(** A protocol as a decision rule over the shared skeleton. *)
type rule = {
  name : string;  (** labels the run's metrics and root span *)
  phases : Ac3_flow.Protocol.event Ac3_obs.Span.phase list;
      (** trace windows turned into phase spans *)
  step : t -> Participant.t -> unit;  (** one poll of one live participant *)
  aborted : t -> bool;
      (** the decision is a confirmed abort, so an edge that was never
          deployed counts as settled *)
  abortable : t -> bool;  (** the abort timer may still request the refund path *)
  observe : t -> unit;  (** protocol-specific metrics, folded in by {!finish} *)
}

(** A launched run whose poll loops are scheduled on the universe's
    engine. The caller drives the engine (alone or interleaved with
    other concurrent swaps sharing the universe) and calls {!finish}
    exactly once. *)
type handle

(** Record [Start], schedule the abort timer (if [abort_after]: once
    that many virtual seconds pass, a still-[abortable] run records
    [Abort_requested] and sets {!abort_requested}), then one poll
    loop per participant, in list order, staggered by a tenth of
    [poll_interval] each. [poll_interval] (default 2 s of virtual
    time) is how often each live participant takes one {!rule.step}.
    Nothing runs until the caller drives time.
    [hooks] bind events to callbacks; each fires once, at the event's
    first {!record}. *)
val launch :
  Universe.t ->
  graph:Ac2t.t ->
  participants:Participant.t list ->
  hooks:(Ac3_flow.Protocol.event * (unit -> unit)) list ->
  ?poll_interval:float ->
  abort_after:float option ->
  rule ->
  handle

(** Every edge redeemed or refunded to confirmation depth, or never
    deployed under an {!rule.aborted} decision. *)
val settled : handle -> bool

(** Stop the poll loops, record [Completed] if {!settled}, fold the
    run's counters and phase spans into the universe's observability
    context, and evaluate the outcome. Call exactly once, whether the
    run settled or a deadline expired with it still in flight. The
    result's [latency] is stamped with the time of this call, not of
    the settlement, so a caller that wants settlement latency must
    finish the run as soon as {!settled} holds, as {!execute} does. *)
val finish : handle -> result

(** Drive the universe of [handles] (all launched on one universe)
    for up to [timeout] virtual seconds, {!finish}ing each run the
    moment it is {!settled} and the rest when the timeout expires;
    the results are in [handles] order. *)
val execute : timeout:float -> handle list -> result list
