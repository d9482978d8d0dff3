(** Algorithm 1: the atomic-swap smart-contract template.

    A swap contract locks an asset from a sender toward a recipient and
    exists in state P (published), RD (redeemed) or RF (refunded);
    [redeem]/[refund] transfer the asset when the corresponding
    commitment-scheme secret validates. Concrete schemes (hashlock +
    timelock, Trent's signature, the witness contract's state) are
    supplied through the {!COMMITMENT} functor parameter. *)

open Ac3_chain

module type COMMITMENT = sig
  (** Code id registered on the chain. *)
  val code_id : string

  (** Validate scheme-specific constructor arguments; returns the
      commitment state stored alongside the template fields. *)
  val init_commitment : Contract_iface.ctx -> Value.t -> (Value.t, string) result

  (** IsRedeemable: does [secret] open the redemption commitment? *)
  val is_redeemable :
    Contract_iface.ctx -> commitment:Value.t -> secret:Value.t -> (bool, string) result

  (** IsRefundable: does [secret] open the refund commitment? *)
  val is_refundable :
    Contract_iface.ctx -> commitment:Value.t -> secret:Value.t -> (bool, string) result
end

(** State accessors shared by protocol drivers and tests. *)

val get_recipient_pk : Value.t -> (string, string) result

val get_sender_pk : Value.t -> (string, string) result

val get_asset : Value.t -> (int64, string) result

val get_commitment : Value.t -> (Value.t, string) result

val is_published : Value.t -> bool

val is_redeemed : Value.t -> bool

val is_refunded : Value.t -> bool

(** {2 Per-edge settlement status}

    The one fact the atomicity criterion (Sec 3) is stated over: is an
    edge's contract unpublished, published (deposit locked), redeemed
    or refunded? The outcome reader, the chaos oracle, the model
    checker and the flow interval check all speak this type. *)

type status = Unpublished | Published | Redeemed | Refunded

(** The status a template contract's state records; [None] when the
    value is not a swap template's state. Never [Some Unpublished]: a
    contract on chain has been published. *)
val classify : Value.t -> status option

(** Redeemed or refunded: the contract no longer moves. *)
val terminal : status -> bool

(** Some edge Redeemed while another is Refunded: somebody paid and was
    not paid (Sec 3's "deposit lost"). *)
val mixed : status array -> bool

(** No edge is still Published ([Unpublished] counts as settled: the
    deposit never left its owner). Allocation-free. *)
val settled : status array -> bool

(** Constructor arguments common to all swap contracts: recipient public
    key plus scheme-specific arguments. *)
val make_args : recipient_pk:Ac3_crypto.Keys.public -> Value.t -> Value.t

(** Instantiate the template over a commitment scheme, yielding contract
    code with functions ["redeem"] and ["refund"]. *)
module Make (_ : COMMITMENT) : Contract_iface.CODE
