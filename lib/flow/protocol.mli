(** The three commitment protocols the checkers compare, with their one
    name table, and the guards of each protocol family.

    The model checker ({!Ac3_model.Checker.protocol}) and the load
    workload ({!Ac3_load.Workload.protocol}) re-export {!t} through a
    type equation; every CLI enum and every printed protocol name comes
    from {!names}. *)

type t = Nolan | Herlihy | Ac3wn

(** [("nolan", Nolan); ("herlihy", Herlihy); ("ac3wn", Ac3wn)]: the name
    table, in declaration order. *)
val names : (string * t) list

(** Every protocol, in declaration order. *)
val all : t list

val name : t -> string

val of_string : string -> t option

(** The family the protocol settles by: Nolan and Herlihy release
    hashlocks through a single leader's secret, AC3WN through the
    witness decision. *)
val family : t -> Flow.profile

(** A witness's decision (AC3TW's Trent, AC3WN's SCw): [Commit]
    authorizes every redeem, [Abort] every refund. It never changes once
    taken. *)
type decision = Undecided | Commit | Abort

(** {1 Events}

    The closed alphabet of a run's trace, shared by every protocol
    driver, the chaos injector and the readers of a trace (phase spans,
    hooks, the model checker's projection). Edge events name the edge
    by its index in graph order. No constructor carries a preimage or
    key material: a trace can be printed or exported as it stands. *)
type event =
  | Start  (** the run launched *)
  | Completed  (** every edge settled to confirmation depth *)
  | Abort_requested  (** the abort timer fired while the run could still abort *)
  | Deploy of int  (** the edge's contract deployment was submitted *)
  | Redeem of int  (** the edge's redeem call was submitted *)
  | Refund of int  (** the edge's refund call was submitted *)
  | Learned_secret of string
      (** Herlihy: a participant, named by a hex prefix of its public
          key, read the secret off a redeem on chain *)
  | Signed of decision  (** AC3TW: Trent signed the decision *)
  | Scw_deployed  (** AC3WN: the witness contract's deployment was submitted *)
  | Scw_confirmed  (** AC3WN: SCw is confirmed on the witness chain *)
  | Authorize_submitted of decision  (** AC3WN: a state-change request was sent to SCw *)
  | Decision_confirmed of decision  (** AC3WN: SCw's decision is buried at depth d *)
  | Fault of string  (** an injected fault fired; the payload is its kind *)

(** The event's trace label: [deploy:2], [redeem_signed],
    [authorize_redeem_submitted], [decision_confirmed:authorize_refund],
    [chaos:crash], ... *)
val pp_event : Format.formatter -> event -> unit

(** {1 Guards}

    One rule table for the protocol drivers ({!Ac3_core.Herlihy},
    {!Ac3_core.Ac3tw}, {!Ac3_core.Ac3wn}) and the model checker
    ({!Ac3_model.Semantics}). Each guard is a pure predicate over facts
    its caller computes, from the chains or from the abstract state.
    The preconditions every protocol shares stay with the caller: the
    acting party is alive, and a deploy needs an unpublished contract,
    a redeem or refund a published one. *)

(** Nolan's and Herlihy's hashlock protocols: knowing the secret is the
    decision, and timelocks decide refunds.

    Neither deploy nor redeem reads the clock. In the model checker,
    [Expire] fires only when no protocol move is enabled, and only a
    deploy or a redeem can enable another protocol move, so after the
    first expiry no deploy or redeem is ever enabled again: an expiry
    conjunct would never bite on an explored path, and on the revived
    paths of M002 it could only block extra ways to settle. *)
module Single_leader : sig
  (** The sender publishes once every contract it receives on is
      published; the leader starts unconditionally. *)
  val deploy : leader:bool -> inputs_published:bool -> bool

  (** The recipient redeems once it knows the secret. The leader, which
      reveals the secret by redeeming, waits until every contract of
      the transaction is published: revealing it earlier would let
      early recipients cash out while later contracts are missing. *)
  val redeem : knows_secret:bool -> leader:bool -> all_published:bool -> bool

  (** The sender refunds once the contract's timelock has expired. *)
  val refund : expired:bool -> bool
end

(** AC3TW and AC3WN: the witness's decision gates every move. *)
module Witness : sig
  (** Senders publish only while the witness is undecided. *)
  val deploy : decision -> bool

  val redeem : decision -> bool

  val refund : decision -> bool

  (** The witness may commit once every contract is published. *)
  val commit : decision -> all_published:bool -> bool

  (** The witness may abort once an abort is requested. *)
  val abort : decision -> abort_requested:bool -> bool
end
