(** Algorithm 3: the witness-network smart contract SCw coordinating an
    AC2T (Sec 4.2).

    Stores the multisigned graph plus one stable checkpoint header per
    asset chain; only the transitions P -> RDauth (with evidence of every
    edge deployment, checked by VerifyContracts) and P -> RFauth exist,
    making commit and abort mutually exclusive. *)

module Multisig = Ac3_crypto.Multisig
open Ac3_chain

val code_id : string

val status_published : Value.t

val status_redeem_authorized : Value.t

val status_refund_authorized : Value.t

(** Constructor arguments: the graph, its multisignature, per-chain
    stable checkpoints, and the required burial of deployment
    evidence. *)
val args :
  graph:Ac2t.t ->
  ms:Multisig.t ->
  checkpoints:(string * Block.header) list ->
  evidence_depth:int ->
  Value.t

val state_is : Value.t -> Value.t -> bool

(** The checkpoint header SCw stores for a chain; participants build
    their evidence bundles against it. *)
val checkpoint_for : Value.t -> string -> (Block.header, string) result

module Code : Contract_iface.CODE
