(** Wallet: an identity attached to a node, with coin selection and
    convenience transaction builders. *)

module Keys = Ac3_crypto.Keys

type t

val create : identity:Keys.t -> node:Node.t -> t

val identity : t -> Keys.t

val node : t -> Node.t

val address : t -> string

val public : t -> Keys.public

val balance : t -> Amount.t

(** Build a transaction (outputs + payload + fee + change) from the
    wallet's UTXOs. Outpoints spent by transactions still pending in the
    node's mempool (this wallet's own earlier submissions, or those of a
    sibling wallet sharing the identity across concurrent swaps) are
    never selected — reusing one would create a double spend that miners
    drop; the check is an O(1) index probe per coin. Inputs are signed
    unless the chain has [verify_signatures = false], in which case
    witness-free transactions preserve the identity's signature budget.
    [Error] if the remaining funds are insufficient; the message gives
    the spendable total and, separately, the amount locked by pending
    spends. *)
val build : t -> ?payload:Tx.payload -> outputs:Tx.output list -> unit -> (Tx.t, string) result

(** Build, sign, and submit; returns the txid. *)
val submit :
  t -> ?payload:Tx.payload -> outputs:Tx.output list -> unit -> (string, string) result

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
  (string * string, string) result

(** Invoke a contract function, optionally attaching a deposit;
    returns the txid. [args] is forced only after coin selection
    succeeds, on the same deferred path as {!deploy}. A refused call
    never builds its arguments; a thunk that returns [Error] refuses
    the call with that message. Either way nothing is submitted and the
    nonce does not advance. *)
val call :
  t ->
  contract_id:string ->
  fn:string ->
  args:(unit -> (Value.t, string) result) ->
  ?deposit:Amount.t ->
  unit ->
  (string, string) result

val confirmations : t -> string -> int
