(** Blocks: PoW headers over Merkle-committed transaction lists. *)

type header = {
  chain : string;
  height : int;
  parent : string;
  merkle_root : string;
  time : float;
  target : string;
  nonce : int64;
}

(** [hash] is {!hash_header} of [header], fixed when the block is built:
    every block comes from {!genesis}, {!mine} or {!raw}. *)
type t = private { header : header; txs : Tx.t list; hash : string }

(** A block over any header, mined or not: for forged blocks in tests.
    Its [hash] is computed here, and nothing is validated. *)
val raw : header:header -> txs:Tx.t list -> t

val encode_header : Ac3_crypto.Codec.Writer.t -> header -> unit

val decode_header : Ac3_crypto.Codec.Reader.t -> header

val header_bytes : header -> string

(** Double SHA-256 of the header. *)
val hash_header : header -> string

(** The block's [hash] field. *)
val hash : t -> string

(** All-zero parent of the genesis block. *)
val genesis_parent : string

val merkle_root_of_txs : Tx.t list -> string

(** Inclusion proof for the [i]-th transaction of the block. *)
val tx_proof : t -> int -> Ac3_crypto.Merkle.proof

val verify_tx_inclusion : header:header -> txid:string -> Ac3_crypto.Merkle.proof -> bool

(** PoW check on a bare header (evidence, SPV); genesis is exempt by
    convention, see {!genesis}. *)
val header_pow_ok : header -> bool

(** Structural validity: Merkle root matches, exactly one leading
    coinbase, all txs tagged with the header's chain. *)
val body_ok : t -> bool

(** The chain's fixed genesis block (PoW-exempt), optionally allocating
    premined outputs. *)
val genesis :
  ?premine:(string * Amount.t) list -> chain:string -> time:float -> target:string -> unit -> t

(** Assemble and proof-of-work-mine a block. *)
val mine :
  chain:string ->
  height:int ->
  parent:string ->
  time:float ->
  target:string ->
  txs:Tx.t list ->
  t
