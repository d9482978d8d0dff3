(** Cross-chain evidence (paper Sec 4.3): header-chain bundles that let
    one blockchain's contracts verify transactions on another. *)

module Merkle = Ac3_crypto.Merkle
open Ac3_chain

(** The stable block header stored in the validator contract. *)
type checkpoint = Block.header

type t = {
  chain : string;
  headers : Block.header list;
  tx_block_hash : string;
  tx_bytes : string;
  tx_proof : Merkle.proof;
}

val encode : Ac3_crypto.Codec.Writer.t -> t -> unit

val decode : Ac3_crypto.Codec.Reader.t -> t

(** Embed in / extract from contract argument values. *)
val to_value : t -> Value.t

val of_value : Value.t -> (t, string) result

(** Build a bundle from a full node's store for [txid], with headers from
    the checkpoint to the node's tip. *)
val build : store:Store.t -> checkpoint:checkpoint -> txid:string -> (t, string) result

(** Verify a bundle against a checkpoint at burial depth [depth]; returns
    the decoded transaction for parameter inspection. *)
val verify : checkpoint:checkpoint -> depth:int -> t -> (Tx.t, string) result

(** Strawman 1 of Sec 4.3: consult a full replica of the validated chain. *)
val verify_by_full_replication :
  replica:Store.t -> txid:string -> depth:int -> (Tx.t, string) result

(** Strawman 2 of Sec 4.3: consult an SPV light node. *)
val verify_by_light_client :
  spv:Spv.t ->
  header_hash:string ->
  txid:string ->
  proof:Merkle.proof ->
  depth:int ->
  (unit, string) result
