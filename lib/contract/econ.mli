(** Economic profile of a contract code: what deploying, settling and
    retrying actually cost, declared by the contract module itself so
    analyses (lib/flow) read semantics instead of pattern-matching on
    code ids.

    The profile describes the value movement of one edge contract: the
    deposit escrowed at deployment, the fraction of it released at
    settlement, whether each settlement direction exists at all, and the
    per-call fee model. The shipped contracts all follow Algorithm 1
    (full deposit, both directions, no fees); non-trivial profiles exist
    so the analyses can be tested against broken economics. *)

open Ac3_chain

type t = {
  code_id : string;
  locks_deposit : bool;  (** deployment escrows the edge amount *)
  redeemable : bool;  (** a redeem path exists *)
  refundable : bool;  (** a refund path exists on abort *)
  payout_num : int;
  payout_den : int;
      (** settlement releases [deposit * payout_num / payout_den];
          1/1 conserves the deposit exactly *)
  submit_fee : Amount.t;  (** chain fee the caller bears per contract call *)
  evidence_fee : Amount.t;  (** extra cost per evidence submission (SCw schemes) *)
  max_retries : int option;
      (** bound on fee-bearing resubmissions; [None] is unbounded *)
}

(** Algorithm 1 semantics: full deposit locked, redeem and refund both
    release it exactly, no fees, one attempt per call. *)
val swap : code_id:string -> t

(** Deposit escrowed for an edge of the given amount ([Amount.zero] when
    the profile locks nothing). *)
val deposit_of_edge : t -> Amount.t -> Amount.t

(** Amount released when a contract holding [deposit] settles. *)
val payout : t -> Amount.t -> Amount.t
