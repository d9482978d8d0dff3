(** Outcome evaluation: did the all-or-nothing property hold? *)

module Ac2t = Ac3_contract.Ac2t
module Swap_template = Ac3_contract.Swap_template

type edge_outcome = {
  edge : Ac2t.edge;
  contract_id : string option;
  status : Swap_template.status;
      (** [Unpublished] when the contract was never deployed, is not on
          the gateway's chain, or does not hold a template state *)
}

type t = { edges : edge_outcome list }

(** Read each edge contract's final status from its chain; [contracts]
    pairs each graph edge (in order) with its contract id, if it was ever
    deployed. *)
val evaluate : Universe.t -> graph:Ac2t.t -> contracts:string option list -> t

(** How {!evaluate} reads one contract's state: {!Swap_template.classify},
    with a state that is not a swap template's read as [Unpublished]. *)
val status_of_state : Ac3_chain.Value.t -> Swap_template.status

val statuses : t -> Swap_template.status array

val all_redeemed : t -> bool

val none_redeemed : t -> bool

val all_refunded_or_missing : t -> bool

(** All-or-nothing: every asset transfer happened, or none did. *)
val atomic : t -> bool

(** Nothing left locked: {!Swap_template.settled} over the statuses. *)
val settled : t -> bool

val committed : t -> bool

val aborted : t -> bool

(** ["missing"], ["P"], ["RD"] or ["RF"]. *)
val pp_status : Format.formatter -> Swap_template.status -> unit

val pp : Format.formatter -> t -> unit
