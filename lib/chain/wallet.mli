(** Wallet: an identity attached to a node, with coin selection and
    convenience transaction builders. *)

module Keys = Ac3_crypto.Keys

type t

val create : identity:Keys.t -> node:Node.t -> t

val address : t -> string

val balance : t -> Amount.t

(** Why a wallet did not submit. A funding refusal carries its amounts
    and not a message: most are never printed. *)
type refusal =
  | Insufficient of { need : Amount.t; spendable : Amount.t; locked : Amount.t }
      (** the spendable coins do not cover [need]; [locked] are the
          coins pending spends hold *)
  | Rejected of string  (** the arguments failed, or the node refused *)

(** ["insufficient funds: need N, have S spendable (L locked by pending
    spends)"] for a funding refusal, the message itself otherwise. *)
val refusal_message : refusal -> string

(** Build a transaction (outputs + payload + fee + change) from the
    wallet's UTXOs. Outpoints spent by transactions still pending in the
    node's mempool (this wallet's own earlier submissions, or those of a
    sibling wallet sharing the identity across concurrent swaps) are
    never selected — reusing one would create a double spend that miners
    drop; the check is an O(1) index probe per coin. Inputs are signed
    unless the chain has [verify_signatures = false], in which case
    witness-free transactions preserve the identity's signature budget.
    [Error] if the remaining funds are insufficient; the message is
    {!refusal_message} of the {!Insufficient} refusal. *)
val build : t -> ?payload:Tx.payload -> outputs:Tx.output list -> unit -> (Tx.t, string) result

(** Plain payment. *)
val pay : t -> to_:string -> amount:Amount.t -> (string, string) result

(** Deploy a contract locking [deposit]; returns (txid, contract id).
    [args] is forced only after coin selection succeeds: a refused
    deploy never builds its constructor arguments and does not advance
    the nonce. *)
val deploy :
  t ->
  code_id:string ->
  args:(unit -> Value.t) ->
  deposit:Amount.t ->
  (string * string, refusal) result

(** Invoke a contract function, optionally attaching a deposit;
    returns the txid. [args] is forced only after coin selection
    succeeds, on the same deferred path as {!deploy}. A refused call
    never builds its arguments; a thunk that returns [Error e] refuses
    the call with [Rejected e]. Either way nothing is submitted and the
    nonce does not advance. *)
val call :
  t ->
  contract_id:string ->
  fn:string ->
  args:(unit -> (Value.t, string) result) ->
  ?deposit:Amount.t ->
  unit ->
  (string, refusal) result
