(** Protocol semantics for the product automaton: moves, enabledness,
    transition function, and the partial-order reduction. Every
    deploy, redeem, refund and witness move is gated by the family's
    guard in {!Ac3_flow.Protocol}, evaluated over the abstract state.

    Time follows maximal-progress semantics — [Expire] is enabled only
    when no conforming alive party has an enabled protocol action. This
    encodes the paper's synchrony assumption (any enabled action lands
    within Δ, before the next deadline); its real-time feasibility is
    checked separately by the T-rules. A [Crash] is pure withholding:
    the party stops acting but its executed history stays conforming,
    which is exactly Herlihy's deviation model. *)

module Ac2t = Ac3_contract.Ac2t
module Keys = Ac3_crypto.Keys
module Flow = Ac3_flow.Flow

type move =
  | Deploy of int  (** the edge's sender publishes its contract *)
  | Redeem of int  (** the edge's recipient redeems *)
  | Refund of int  (** the edge's sender refunds after expiry / RFauth *)
  | Crash of int  (** party stops acting forever (budgeted fault) *)
  | Expire  (** the next distinct timelock deadline passes *)
  | W_commit  (** witness network authorizes redemption (P -> RDauth) *)
  | W_abort  (** witness network authorizes refund (P -> RFauth) *)

(** Every [Deploy], [Redeem], [Refund] and [Crash] value of one model,
    indexed by edge or party: {!enabled} returns these rather than
    allocating a move per explored state. *)
type moves = {
  deploy : move array;
  redeem : move array;
  refund : move array;
  crash : move array;
}

type model = {
  profile : Flow.profile;
      (** [Single_leader] is Herlihy's hashlock protocol
          (Nolan is its two-party case); [Witness] is AC3WN *)
  graph : Ac2t.t;
  parties : Keys.public array;  (** index 0 is the leader *)
  edges : Ac2t.edge array;
  edge_from : int array;  (** sender party index per edge *)
  edge_to : int array;  (** recipient party index per edge *)
  expiry_rank : int array;
      (** rank of the edge's expiry among distinct deadlines; empty for
          [Witness], whose contracts carry no timelock *)
  n_deadlines : int;
  crash_budget : int;
  moves : moves;
}

(** Builds the model; for [Single_leader] this runs
    {!Ac3_verify.Timelock.assign} and fails on graphs it rejects (e.g.
    not single-leader executable). *)
val make :
  profile:Flow.profile ->
  graph:Ac2t.t ->
  delta:float ->
  timelock_slack:float ->
  start_time:float ->
  crash_budget:int ->
  (model, string) result

val init : model -> Global_state.t

(** The successor state: one copy of the source's bytes with the one or
    two fields the move writes changed. States are immutable strings, so
    the input is never mutated. *)
val apply : model -> Global_state.t -> move -> Global_state.t

(** All enabled moves, in a canonical (deterministic) order. *)
val enabled : model -> Global_state.t -> move list

(** [enabled] filtered by the partial-order reduction: returns the ample
    move set and the number of pruned transitions. Sound because every
    state component is monotone (the state graph is a DAG, so the
    ignoring problem is moot); reduction only kicks in once the fault
    budget is spent and (for AC3WN) the witness has decided. *)
val reduced : model -> Global_state.t -> move list * int

val pp_party : model -> Format.formatter -> int -> unit

val pp_move : model -> Format.formatter -> move -> unit

(** One move per line, in execution order. *)
val pp_schedule : model -> Format.formatter -> move list -> unit
