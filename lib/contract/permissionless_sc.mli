(** Algorithm 4: the per-edge swap contract of the AC3WN protocol.

    Redemption requires in-contract evidence that the witness contract
    SCw reached RDauth at burial depth >= d on the witness chain; refund
    requires the same for RFauth. Inclusion of a successful SCw call in a
    stable witness block proves the transition (miners execute contract
    calls during validation, so failed calls never appear in blocks). *)

module Keys = Ac3_crypto.Keys

open Ac3_chain

val code_id : string

(** Function names of the SCw state changes the evidence must show. *)
val authorize_redeem_fn : string

val authorize_refund_fn : string

module Code : Contract_iface.CODE

(** Full constructor arguments (recipient + scheme). *)
val args :
  recipient_pk:Keys.public ->
  witness_chain:string ->
  scw:string ->
  depth:int ->
  witness_checkpoint:Block.header ->
  Value.t

(** Extract (witness chain, SCw id, d) from deployment arguments; the
    witness contract's VerifyContracts uses this. *)
val binding_of_args : Value.t -> (string * string * int, string) result

val recipient_of_args : Value.t -> (string, string) result

(** Declared value semantics (Algorithm 1: full-deposit escrow,
    conserving redeem/refund). *)
val econ : Econ.t
