(** Pass 3: bounded exhaustive exploration of contract state machines.

    Any {!Ac3_chain.Contract_iface.CODE} is driven from its [init] state
    through every combination of a finite probe set — (function, caller,
    time region) triples — building an explicit automaton whose nodes
    are (contract state, cumulative payout) pairs. Rejected calls
    (contract code returning [Error]) produce no transition, exactly as
    miners drop invalid transactions.

    Rules:
    - [S000-summary]              (info) nodes/transitions explored.
    - [S001-stuck-state]          (error) a reachable non-terminal state
      from which no terminal (Redeemed/Refunded) state is reachable:
      funds can be locked forever.
    - [S002-terminal-not-absorbing] (error) a transition leaves a
      terminal state.
    - [S003-terminal-confusion]   (error) some execution path reaches
      both a Redeemed and a Refunded state: redeem and refund are not
      mutually exclusive.
    - [S004-conservation]         (error) cumulative payouts exceed the
      locked balance, or a terminal state has not paid it out exactly.
    - [S005-truncated]            (warning) the node bound was hit; the
      verdict only covers the explored prefix.
    - [S007-misrouted-payout]     (error) a payout went to an address
      other than the settlement payee declared by [payee_of] — totals
      can balance while the money still goes to the wrong party.

    The explorer never trusts the contract's own accounting: a state
    that has already released more than the deposit is reported by
    S004 but not probed further (its remaining balance is undefined). *)

module Keys = Ac3_crypto.Keys
open Ac3_chain

type cls = Published | Redeemed | Refunded | Other

(** One probe: a candidate call, fired from every explored state. *)
type probe = {
  label : string;  (** transition label, e.g. ["redeem/recipient/late"] *)
  fn : string;
  args : Value.t;
  caller : Keys.public;
  time : float;  (** block time the call executes at *)
}

type spec = {
  code : (module Contract_iface.CODE);
  chain_id : string;
  deployer : Keys.public;
  deposit : Amount.t;  (** asset locked at deployment *)
  init_args : Value.t;
  init_time : float;
  probes : probe list;
  classify : Value.t -> cls;
  payee_of : (Value.t -> cls -> string option) option;
      (** settlement payee address of a (post-transition) state:
          [Some addr] means every payout must go to [addr], [None]
          means no payout is legitimate there. Omit ([None] at the spec
          level) to disable payee checking. *)
  max_nodes : int;
}

type node = {
  id : int;
  state : Value.t;
  cls : cls;
  paid : Amount.t;  (** cumulative payouts on the path reaching this node *)
  stray : Amount.t;  (** cumulative misrouted payouts (see [payee_of]) *)
  succs : (string * int) list;  (** (probe label, target node id), discovery order *)
}

type automaton

(** [Error] if the contract rejects the deployment itself. *)
val explore : spec -> (automaton, string) result

val nodes : automaton -> node list

val node_count : automaton -> int

val truncated : automaton -> bool

(** Distinct classes among reachable states. *)
val classes : automaton -> cls list

(** [name], when given, prefixes every diagnostic location with the
    owning contract id ("htlc: state #3 ..."), keeping multi-contract
    reports attributable. *)
val check : ?name:string -> automaton -> Diagnostic.t list

(** [explore] then [check]; a rejected deployment becomes a
    [S006-init-rejected] error. *)
val verify : ?name:string -> spec -> Diagnostic.t list

val pp_cls : Format.formatter -> cls -> unit
