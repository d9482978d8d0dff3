(* Blocks: a proof-of-work header committing to an ordered transaction
   list via a Merkle root. Headers carry the chain id so headers from one
   blockchain can never masquerade as another's in cross-chain evidence. *)

module Codec = Ac3_crypto.Codec
module Sha256 = Ac3_crypto.Sha256
module Merkle = Ac3_crypto.Merkle

type header = {
  chain : string;
  height : int;
  parent : string; (* 32-byte parent header hash *)
  merkle_root : string; (* 32-byte root over txids *)
  time : float; (* virtual timestamp at mining *)
  target : string; (* 32-byte PoW target *)
  nonce : int64;
}

(* [hash] is the header's double SHA-256, fixed when the block is built
   (every constructor below goes through [raw]), like a transaction's
   id: a block's hash is its identity, read by every depth poll, fork
   walk and store lookup. *)
type t = { header : header; txs : Tx.t list; hash : string }

let encode_header w h =
  Codec.Writer.string w h.chain;
  Codec.Writer.u32 w h.height;
  Codec.Writer.fixed w ~len:32 h.parent;
  Codec.Writer.fixed w ~len:32 h.merkle_root;
  Codec.Writer.float w h.time;
  Codec.Writer.fixed w ~len:32 h.target;
  Codec.Writer.i64 w h.nonce

let decode_header r =
  let chain = Codec.Reader.string r in
  let height = Codec.Reader.u32 r in
  let parent = Codec.Reader.fixed r ~len:32 in
  let merkle_root = Codec.Reader.fixed r ~len:32 in
  let time = Codec.Reader.float r in
  let target = Codec.Reader.fixed r ~len:32 in
  let nonce = Codec.Reader.i64 r in
  { chain; height; parent; merkle_root; time; target; nonce }

let header_bytes h = Codec.encode encode_header h

let hash_header h = Sha256.digest2 (header_bytes h)

let raw ~header ~txs = { header; txs; hash = hash_header header }

let hash t = t.hash

let genesis_parent = String.make 32 '\x00'

let merkle_root_of_txs txs = Merkle.root (List.map Tx.txid txs)

(* Inclusion proof for the [i]-th transaction; verified by light clients
   and by cross-chain evidence checks. *)
let tx_proof t i = Merkle.proof (List.map Tx.txid t.txs) i

let verify_tx_inclusion ~header ~txid proof =
  Merkle.verify ~root:header.merkle_root ~leaf:txid proof

(* Header-only validity: PoW met and internal consistency. *)
let header_pow_ok h = Pow.meets_target ~hash:(hash_header h) ~target:h.target

(* Full structural validity of a block body against its header. *)
let body_ok t =
  String.equal t.header.merkle_root (merkle_root_of_txs t.txs)
  && (match t.txs with
     | first :: rest -> Tx.is_coinbase first && List.for_all (fun tx -> not (Tx.is_coinbase tx)) rest
     | [] -> false)
  && List.for_all (fun (tx : Tx.t) -> String.equal tx.Tx.chain t.header.chain) t.txs

let genesis ?(premine = []) ~chain ~time ~target () =
  let txs = [ Tx.genesis ~chain ~premine ] in
  let header =
    {
      chain;
      height = 0;
      parent = genesis_parent;
      merkle_root = merkle_root_of_txs txs;
      time;
      target;
      nonce = 0L;
    }
  in
  (* Genesis is exempt from PoW: it is a fixed constant of the chain. *)
  raw ~header ~txs

(* Assemble and mine a block on [parent_hash]. The header is serialized
   once; [Pow.grind] patches the nonce — the final 8 bytes of the
   encoding — per attempt, hashing the same bytes [hash_header { base
   with nonce }] would hash. *)
let mine ~chain ~height ~parent ~time ~target ~txs =
  let merkle_root = merkle_root_of_txs txs in
  let base = { chain; height; parent; merkle_root; time; target; nonce = 0L } in
  let nonce = Pow.grind ~target (header_bytes base) in
  raw ~header:{ base with nonce } ~txs
